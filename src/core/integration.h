// Algorithm 3: atypical cluster integration.
//
// Repeatedly merges cluster pairs whose similarity exceeds δsim until no
// pair qualifies (a fixpoint; merge order does not matter for feature
// correctness by Property 3, but hard clustering makes the partition itself
// order-dependent, so this implementation fixes a deterministic greedy
// order).  Each round scans a slot's candidates in ascending order.  At
// δsim >= 0.5 the candidates are the alive slots that share a sensor with
// it, found through per-call sensor postings: a pair sharing no sensor has
// Sim = ½(0 + SimTF) <= 0.5 and can never merge (DESIGN §11).  Below 0.5
// every alive slot is a candidate.  A slot's first scan starts past itself,
// since every lower slot has already rejected it.  The result is
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
  // Degradation guards on the fixpoint loop (0 = unlimited).  When either
  // budget trips, integration stops merging and returns the partition
  // reached so far — a clean partial result, not an error.  The outcome is
  // visible in IntegrationStats::converged and the
  // degradation.integration_partial counter.
  uint64_t max_fixpoint_rounds = 0;
  double deadline_seconds = 0.0;
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
  // False when a max_fixpoint_rounds / deadline_seconds guard stopped the
  // loop before the Algorithm 3 fixpoint: the output is a valid partition,
  // but some mergeable pairs may remain unmerged.
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
