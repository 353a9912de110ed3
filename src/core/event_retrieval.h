// Algorithm 1: retrieving atypical events and summarizing them as
// micro-clusters in a single pass over the atypical records.
//
// An atypical event (Def. 3) is a maximal set of atypical records connected
// by the *direct atypical related* relation (Def. 1: sensor distance < δd
// and window interval < δt).  Batch retrieval orders the records by window
// and streams them through the same joiner the streaming builder uses
// (core/streaming.h): each record is joined with the open events of its
// sensor's precomputed δd-neighbours, so retrieval is O(N + n log n)
// (Proposition 1's indexed bound) and streamed ≡ batch by construction.
#ifndef ATYPICAL_CORE_EVENT_RETRIEVAL_H_
#define ATYPICAL_CORE_EVENT_RETRIEVAL_H_

#include <vector>

#include "core/cluster.h"
#include "cps/record.h"
#include "cps/sensor_network.h"

namespace atypical {

struct RetrievalParams {
  double delta_d_miles = 1.5;  // paper default
  int delta_t_minutes = 15;    // paper default
  DistanceMetric metric = DistanceMetric::kEuclidean;
};

struct RetrievalStats {
  size_t num_events = 0;
  size_t num_records = 0;
  size_t neighbor_checks = 0;  // sensor entries examined (EventJoiner)
  double seconds = 0.0;
};

// Partitions `records` (in any order) into atypical events; each inner
// vector holds indices into `records` (sorted ascending).  Events are
// ordered by their smallest record index, so the output is deterministic.
std::vector<std::vector<size_t>> RetrieveEvents(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params,
    RetrievalStats* stats = nullptr);

// Summarizes one event (record indices into `records`) as a micro-cluster
// (lines 6–12 of Algorithm 1): SF keyed by sensor, TF keyed by absolute
// window.
AtypicalCluster BuildMicroCluster(const std::vector<AtypicalRecord>& records,
                                  const std::vector<size_t>& event,
                                  const TimeGrid& grid,
                                  ClusterIdGenerator* ids);

// Full Algorithm 1: events + their micro-clusters.
std::vector<AtypicalCluster> RetrieveMicroClusters(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params,
    ClusterIdGenerator* ids, RetrievalStats* stats = nullptr);

}  // namespace atypical

#endif  // ATYPICAL_CORE_EVENT_RETRIEVAL_H_
