// Algorithm 3: atypical cluster integration.
//
// Repeatedly merges cluster pairs whose similarity exceeds δsim until no
// pair qualifies (a fixpoint; merge order does not matter for feature
// correctness by Property 3, but hard clustering makes the partition itself
// order-dependent, so this implementation fixes a deterministic greedy
// order).  Each round scans a slot's candidates in ascending order.  At
// δsim >= 0.5 the candidates are the alive slots that share a sensor with
// it, found through per-call sensor postings, and one is evaluated only if
// it also shares a window: its per-slot bitmask of windows meets the
// slot's, and, where the inputs span more windows than a mask has bits,
// their sorted window keys meet too.  A pair sharing no sensor has
// Sim = ½(0 + SimTF) <= 0.5, one sharing no window has
// Sim = ½(SimSF + 0) <= 0.5, and neither can merge (DESIGN §11).  Below
// 0.5 every alive slot is a candidate.  A slot's first scan starts past
// itself, since every lower slot has already rejected it.  A merge absorbs
// the candidate into the slot in place (AbsorbCluster, Algorithm 2) and
// ORs its window mask into the slot's; a slot that absorbed anything
// leaves with its vectors trimmed to their entries.  The result is
// bit-identical to the literal quadratic loop (tested).
#ifndef ATYPICAL_CORE_INTEGRATION_H_
#define ATYPICAL_CORE_INTEGRATION_H_

#include <vector>

#include "core/cluster.h"
#include "core/similarity.h"

namespace atypical {

struct IntegrationParams {
  double delta_sim = 0.5;  // paper default
  BalanceFunction g = BalanceFunction::kArithmeticMean;  // paper default
  // Degradation guard on the fixpoint loop (0 = unlimited).  When the
  // budget trips, integration stops merging and returns the partition
  // reached so far — a clean partial result, not an error.  Rounds, unlike
  // wall-clock time, make the partial partition the same on every host.
  // The outcome is visible in IntegrationStats::converged and the
  // degradation.integration_partial counter.
  uint64_t max_fixpoint_rounds = 0;
};

struct IntegrationStats {
  size_t input_clusters = 0;
  size_t output_clusters = 0;
  size_t similarity_checks = 0;  // candidate pairs evaluated
  size_t merges = 0;
  // Retired: every candidate pair gets the exact Similarity() verdict, so
  // exact_scans == similarity_checks and pruned_scans == 0.  Kept only
  // because the frozen perfbench/pipeline_bench.cc reads them.
  uint64_t exact_scans = 0;
  uint64_t pruned_scans = 0;
  uint64_t fixpoint_rounds = 0;
  // False when the max_fixpoint_rounds guard stopped the loop before the
  // Algorithm 3 fixpoint: the output is a valid partition, but some
  // mergeable pairs may remain unmerged.
  bool converged = true;
  double seconds = 0.0;
};

// Integrates `clusters` (consumed) into macro-clusters.  All inputs must
// share one TemporalKeyMode.  δsim must be positive.
std::vector<AtypicalCluster> IntegrateClusters(
    std::vector<AtypicalCluster> clusters, const IntegrationParams& params,
    ClusterIdGenerator* ids, IntegrationStats* stats = nullptr);

}  // namespace atypical

#endif  // ATYPICAL_CORE_INTEGRATION_H_
