// The atypical forest (§III.C): per-day micro-clusters at the leaves.
//
// The forest is the system's offline-constructed model.  Analytical queries
// integrate leaf micro-clusters on demand, as the paper's experiments do
// (they pre-compute only the daily micro-clusters).  Week or month
// macro-clusters above the leaves are built offline by MaterializeLevel and
// are not part of the served model.
#ifndef ATYPICAL_CORE_FOREST_H_
#define ATYPICAL_CORE_FOREST_H_

#include <functional>
#include <map>
#include <memory>
#include <ranges>
#include <vector>

#include "core/cluster.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "cps/record.h"
#include "cps/sensor_network.h"

namespace atypical {

struct ForestParams {
  RetrievalParams retrieval;
  IntegrationParams integration;
};

// Data-quality provenance of one stored day: what the ingest path knows it
// lost before the day's records reached the forest.  Populated from the
// salvage reader's SalvageReport and the ingest guard's quarantine tally;
// queries over the day surface it as a completeness annotation, so a day
// with no clusters is distinguishable as "quiet" (no damage recorded) vs
// "blind" (records were lost on the way in).
struct DayProvenance {
  uint64_t records_stored = 0;       // records that reached the forest
  uint64_t records_lost = 0;         // lost to storage damage (salvage)
  uint64_t records_quarantined = 0;  // rejected by the ingest guard
  uint64_t blocks_skipped = 0;       // CRC-failed / implausible blocks
  bool footer_missing = false;       // source file ended mid-structure

  bool degraded() const {
    return records_lost > 0 || records_quarantined > 0 || blocks_skipped > 0 ||
           footer_missing;
  }
};

class AtypicalForest {
 public:
  AtypicalForest(const SensorNetwork* network, const TimeGrid& grid,
                 const ForestParams& params);

  const TimeGrid& time_grid() const { return grid_; }
  const ForestParams& params() const { return params_; }
  ClusterIdGenerator* ids() { return &ids_; }

  // Builds and stores the micro-clusters of one day.  `records` must all
  // fall on `day`.  Days may arrive in any order, and a day may arrive more
  // than once: a later batch is clustered on its own and its micro-clusters
  // are appended to the day's leaf set.  Records split across batches are
  // not re-joined at the leaf — query-time integration merges similar
  // clusters.
  void AddDay(int day, const std::vector<AtypicalRecord>& records);

  // Groups `records` by day and adds each day (appending to days already
  // present, per the AddDay batch-merge policy).
  void AddRecords(const std::vector<AtypicalRecord>& records);

  // Days present, ascending.
  std::vector<int> Days() const;
  bool HasDay(int day) const { return days_.contains(day); }
  // Stored days in `range`.
  int NumDaysInRange(const DayRange& range) const;
  const std::vector<AtypicalCluster>& MicrosOfDay(int day) const;

  // Leaf micro-clusters whose day falls in `range` (ascending day order).
  std::vector<const AtypicalCluster*> MicrosInRange(const DayRange& range) const;
  // The same walk, appending to `out` (a query's reusable candidate
  // buffer).  Returns the number of pointers appended.
  size_t AppendMicrosInRange(const DayRange& range,
                             std::vector<const AtypicalCluster*>* out) const;

  // Micro-cluster severities by id over `range` (evaluation support).
  std::map<ClusterId, double> MicroSeverities(const DayRange& range) const;

  // Installs a day's pre-built micro-clusters directly, bypassing
  // retrieval (e.g. leaves finalized by an IncrementalIntegrator).  The id
  // generator is advanced past every installed cluster id and micro id so
  // new clusters never collide with installed ones.
  void InstallDay(int day, std::vector<AtypicalCluster> micros);

  // ---- degradation provenance ----
  // Accumulates damage metadata for `day` (fields add up across calls, so
  // per-batch and per-source tallies compose).  Recording a provenance with
  // damage bumps the degradation.* obs counters.
  void RecordDayProvenance(int day, const DayProvenance& provenance);
  // (day, damage metadata) for the days in `range` that have any recorded,
  // ascending; a day without one reads as "no known loss".
  using ProvenanceRange =
      std::ranges::subrange<std::map<int, DayProvenance>::const_iterator>;
  ProvenanceRange ProvenanceInRange(const DayRange& range) const;

  size_t num_micro_clusters() const { return num_micros_; }
  uint64_t ByteSize() const;

  // The forest of a published epoch (DESIGN §16), given the epoch copy made
  // at the last publish (or nullptr).  Days unchanged since then share its
  // blocks; the rest are deep-copied, in day order, so this forest
  // keeps its own.  Adds the number of blocks copied to `*copied`.
  AtypicalForest EpochCopy(const AtypicalForest* previous,
                           uint64_t* copied) const;

 private:
  // A day's leaves.  Mutations swap in a new block and never write through
  // one, so forest copies can share blocks.
  using Block = std::shared_ptr<const std::vector<AtypicalCluster>>;
  // Version stamps (DESIGN §16): version_ counts day mutations; a day
  // carries the version of its last change, so EpochCopy shares exactly the
  // blocks that kept theirs.
  struct Day {
    Block micros;
    uint64_t version = 0;  // of the day's last mutation
  };

  // Moves the id generator past every id in `clusters`.
  void AdvanceIdsPast(const std::vector<AtypicalCluster>& clusters);

  const SensorNetwork* network_;
  TimeGrid grid_;
  ForestParams params_;
  ClusterIdGenerator ids_;
  std::map<int, Day> days_;
  std::map<int, DayProvenance> provenance_by_day_;
  size_t num_micros_ = 0;
  uint64_t version_ = 0;
};

// Offline materialization of one forest level (§III.C): for each unit of the
// stored days (a week with cube::WeekOfDay, a month with cube::MonthOfDay),
// in ascending unit order, integrates the unit's micro-clusters re-keyed to
// time-of-day, minting macro ids from `ids`.  The forest is not changed;
// pass forest.ids() to continue its id sequence.
std::map<int, std::vector<AtypicalCluster>> MaterializeLevel(
    const AtypicalForest& forest, const std::function<int(int)>& unit_of_day,
    ClusterIdGenerator* ids);

}  // namespace atypical

#endif  // ATYPICAL_CORE_FOREST_H_
