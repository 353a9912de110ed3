// Incremental streaming integration: online macro-clusters over a live feed
// with a streamed≡batch fixpoint guarantee.
//
// `IncrementalIntegrator` sits behind the streaming builders' emit seam
// (StreamingEventBuilder::EmitSeqFn) and maintains a running macro-state:
// each arriving micro-cluster is probed against the CandidateIndex and
// cascaded into the state until no alive pair of macro-clusters exceeds
// δsim — the same fixpoint *property* Algorithm 3 guarantees, restored in
// amortized per-arrival cost instead of an O(n²) per-epoch re-run.
//
// The online *partition* can legitimately differ from the batch one: the
// greedy order is arrival order, and committing merges as records arrive
// can fuse a pair (say B, C) that batch order would have kept apart because
// an earlier slot (A, grown by a later arrival D) would have absorbed C
// first — and the fused B∪C may dilute below δsim against A∪D.  No online
// commit discipline can be batch-prefix-equivalent, so the integrator keeps
// the arrived micro-clusters and `Finalize()` *re-derives* the canonical
// result: micros are sorted by their first-record arrival index (exactly
// batch RetrieveEvents' event order), re-numbered from the real id
// generator in that order, and run through the very same
// integration_internal::GreedyFixpoint the batch driver uses.  The output
// is therefore bit-identical — cluster ids included — to
// RetrieveMicroClusters + IntegrateClusters over the same records
// (property-tested across balance functions × δsim × permutations).
//
// Id discipline: the builder and all provisional online merges draw from a
// private scratch generator (`scratch_ids()`, starting at 2^40) so the real
// generator's sequence is untouched until Finalize() replays it — which is
// what makes the finalized ids line up with batch.  See DESIGN.md §14.
#ifndef ATYPICAL_CORE_INCREMENTAL_INTEGRATION_H_
#define ATYPICAL_CORE_INCREMENTAL_INTEGRATION_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "core/integration.h"
#include "core/integration_internal.h"
#include "core/similarity.h"
#include "core/streaming.h"

namespace atypical {

// Online-side counters (the Finalize() run reports through the usual
// IntegrationStats).  Published to the obs registry as
// integration.incremental.* on Finalize()/destruction, delta-style.
struct IncrementalIntegrationStats {
  uint64_t arrivals = 0;
  uint64_t online_merges = 0;
  uint64_t similarity_checks = 0;
  uint64_t cascade_rounds = 0;
  uint64_t index_compactions = 0;
  // Arrivals whose cascade was cut short by max_fixpoint_rounds /
  // deadline_seconds (applied per arrival).  The state stays a valid,
  // severity-conserving partition; some qualifying pairs may linger until a
  // later arrival's cascade or Finalize() re-visits them.
  uint64_t budget_trips = 0;
  // False once any cascade tripped a budget: the online state is then not
  // guaranteed to be at its fixpoint.
  bool converged = true;
};

class IncrementalIntegrator {
 public:
  // `ids` is the real id generator shared with the rest of the pipeline
  // (e.g. AtypicalForest's); Finalize() is its only consumer.  It must
  // currently sit exactly where the equivalent batch run would start it.
  IncrementalIntegrator(const IntegrationParams& params,
                        ClusterIdGenerator* ids);
  ~IncrementalIntegrator();  // publishes outstanding online counters

  IncrementalIntegrator(const IncrementalIntegrator&) = delete;
  IncrementalIntegrator& operator=(const IncrementalIntegrator&) = delete;

  // Construct the streaming builder with this generator so provisional
  // micro ids never consume the real sequence (ids are re-assigned from the
  // real generator in Finalize()).
  ClusterIdGenerator* scratch_ids() { return &scratch_ids_; }

  // Adapter for the builders' seq-carrying emit seam.  The integrator must
  // outlive the builder using it.
  StreamingEventBuilder::EmitSeqFn AsEmitFn();

  // Feeds one closed micro-cluster whose earliest record was the
  // `first_record_seq`-th accepted record of the feed (the builders supply
  // this via EmitSeqFn).  Seqs must be unique across a Finalize() cycle.
  // Probes the candidate index and cascades merges until the online state
  // is back at its fixpoint (or a per-arrival budget trips).
  void Accept(AtypicalCluster micro, uint64_t first_record_seq);

  // Micro-clusters retained since construction / the last Reset().
  size_t num_micros() const { return retained_.size(); }
  // Macro-clusters currently alive in the online state.
  size_t num_macros() const { return alive_count_; }

  // Copies of the alive online macro-clusters, in slot order.  Ids are
  // provisional (scratch); severity mass is conserved: the snapshot's
  // record mass equals the sum over all retained micros.
  std::vector<AtypicalCluster> MacroSnapshot() const;

  const IncrementalIntegrationStats& online_stats() const { return stats_; }

  // Re-derives the canonical batch result from the retained micros:
  // bit-identical — ids included — to RetrieveMicroClusters +
  // IntegrateClusters over the same accepted records with the same params
  // and generator state (budget-tripped partials included: `stats` mirrors
  // the batch IntegrationStats, converged flag and all).  If
  // `canonical_micros` is non-null it receives the re-numbered micros (the
  // exact batch micro-clusters — e.g. for installing into a forest).
  // After Finalize() the integrator refuses further Accept()s until
  // Reset().
  std::vector<AtypicalCluster> Finalize(
      IntegrationStats* stats = nullptr,
      std::vector<AtypicalCluster>* canonical_micros = nullptr);

  // Publishes outstanding counters, then returns to the freshly-constructed
  // state (scratch generator re-based included) so one integrator can serve
  // consecutive days.  Online counters stay cumulative.
  void Reset();

 private:
  struct RetainedMicro {
    AtypicalCluster micro;
    uint64_t first_seq = 0;
  };

  // Restores the online fixpoint after `focus` changed (was appended or
  // grew).  Only the focus slot's pairs can newly qualify — every other
  // alive pair was already below δsim and is untouched — so re-checking the
  // focus against its candidate-key neighbours per round is sufficient.
  void Cascade(uint32_t focus);
  void PublishOnlineStats();

  IntegrationParams params_;
  ClusterIdGenerator* ids_;
  ClusterIdGenerator scratch_ids_;
  std::unique_ptr<integration_internal::CandidateIndex> index_;

  std::vector<AtypicalCluster> slots_;  // online state; merged-away = dead
  std::vector<bool> alive_;
  size_t alive_count_ = 0;
  std::vector<RetainedMicro> retained_;
  bool finalized_ = false;

  IncrementalIntegrationStats stats_;
  IncrementalIntegrationStats published_;
  SimilarityScanStats scan_stats_;
  std::vector<uint32_t> candidates_;  // scratch for Cascade
};

}  // namespace atypical

#endif  // ATYPICAL_CORE_INCREMENTAL_INTEGRATION_H_
