// Streamed Algorithm 3: one day's micro-clusters from a live feed,
// integrated once at the end of the day.
//
// `IncrementalIntegrator` sits behind the streaming builders' emit seam
// (StreamingEventBuilder::EmitSeqFn).  Accept() keeps each closed
// micro-cluster with the arrival index of its first record; Finalize()
// sorts the kept micros by that index (exactly batch RetrieveEvents' event
// order), re-numbers them from the real id generator in that order, and
// runs IntegrateClusters once.  The output is therefore bit-identical —
// cluster ids included — to RetrieveMicroClusters + IntegrateClusters over
// the same records (property-tested across balance functions × δsim ×
// permutations).  As in the paper, Algorithm 3 is one offline fixpoint
// over the day's micros; nothing is merged between arrivals.
//
// Id discipline: the builder draws its provisional micro ids from a private
// scratch generator (`scratch_ids()`, starting at 2^40) so the real
// generator's sequence is untouched until Finalize() replays it — which is
// what makes the finalized ids line up with batch.  See DESIGN.md §14.
#ifndef ATYPICAL_CORE_INCREMENTAL_INTEGRATION_H_
#define ATYPICAL_CORE_INCREMENTAL_INTEGRATION_H_

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "core/integration.h"
#include "core/streaming.h"

namespace atypical {

// Always 0 (nothing merges before Finalize()); perfbench reads them.
struct IncrementalIntegrationStats {
  uint64_t online_merges = 0;
  uint64_t similarity_checks = 0;
};

class IncrementalIntegrator {
 public:
  // `ids` is the real id generator shared with the rest of the pipeline
  // (e.g. AtypicalForest's); Finalize() is its only consumer.  It must
  // currently sit exactly where the equivalent batch run would start it.
  IncrementalIntegrator(const IntegrationParams& params,
                        ClusterIdGenerator* ids);

  IncrementalIntegrator(const IncrementalIntegrator&) = delete;
  IncrementalIntegrator& operator=(const IncrementalIntegrator&) = delete;

  // Construct the streaming builder with this generator so provisional
  // micro ids never consume the real sequence (ids are re-assigned from the
  // real generator in Finalize()).
  ClusterIdGenerator* scratch_ids() { return &scratch_ids_; }

  // Adapter for the builders' seq-carrying emit seam.  The integrator must
  // outlive the builder using it.
  StreamingEventBuilder::EmitSeqFn AsEmitFn();

  // Keeps one closed micro-cluster whose earliest record was the
  // `first_record_seq`-th accepted record of the feed (the builders supply
  // this via EmitSeqFn).  Seqs must be unique across a Finalize() cycle.
  void Accept(AtypicalCluster micro, uint64_t first_record_seq);

  // Micro-clusters kept since construction / the last Reset().
  size_t num_micros() const { return retained_.size(); }

  const IncrementalIntegrationStats& online_stats() const { return stats_; }

  // Derives the canonical batch result from the kept micros: bit-identical
  // — ids included — to RetrieveMicroClusters + IntegrateClusters over the
  // same accepted records with the same params and generator state
  // (budget-tripped partials included: `stats` is the IntegrateClusters
  // run's, converged flag and all).  If `canonical_micros` is non-null it
  // receives the re-numbered micros (the exact batch micro-clusters — e.g.
  // for installing into a forest).  After Finalize() the integrator refuses
  // further Accept()s until Reset().
  std::vector<AtypicalCluster> Finalize(
      IntegrationStats* stats = nullptr,
      std::vector<AtypicalCluster>* canonical_micros = nullptr);

  // Returns to the freshly-constructed state (scratch generator re-based
  // included) so one integrator can serve consecutive days.
  void Reset();

 private:
  struct RetainedMicro {
    AtypicalCluster micro;
    uint64_t first_seq = 0;
  };

  IntegrationParams params_;
  ClusterIdGenerator* ids_;
  ClusterIdGenerator scratch_ids_;
  std::vector<RetainedMicro> retained_;
  bool finalized_ = false;
  IncrementalIntegrationStats stats_;
};

}  // namespace atypical

#endif  // ATYPICAL_CORE_INCREMENTAL_INTEGRATION_H_
