// Cluster similarity (Eq. 2–4).
//
//   Sim(C1, C2)    = ½ (SimSF + SimTF)
//   SimSF(C1, C2)  = g( Σ_{S1∩S2} μ1 / Σ_{S1} μ1 ,  Σ_{S1∩S2} μ2 / Σ_{S2} μ2 )
//   SimTF          analogous on temporal features
//
// g balances the two clusters' common-severity fractions; the paper
// evaluates max, min, arithmetic, geometric and harmonic means (Fig. 21).
#ifndef ATYPICAL_CORE_SIMILARITY_H_
#define ATYPICAL_CORE_SIMILARITY_H_

#include <string>

#include "core/cluster.h"
#include "util/hot_path.h"

namespace atypical {

enum class BalanceFunction : uint8_t {
  kMax,
  kMin,
  kArithmeticMean,
  kGeometricMean,
  kHarmonicMean,
};

const char* BalanceFunctionName(BalanceFunction g);

// Applies the balance function to two fractions in [0, 1].
double Balance(BalanceFunction g, double p1, double p2);

// Eq. 3.  Empty features yield 0.
double SpatialSimilarity(const AtypicalCluster& c1, const AtypicalCluster& c2,
                         BalanceFunction g);

// Eq. 4.  The clusters must use the same TemporalKeyMode.
double TemporalSimilarity(const AtypicalCluster& c1, const AtypicalCluster& c2,
                          BalanceFunction g);

// Eq. 2.
ATYPICAL_HOT double Similarity(const AtypicalCluster& c1,
                               const AtypicalCluster& c2, BalanceFunction g);

// ---- similarity fast path (DESIGN §11) ----
//
// The integration drivers only need the *verdict* Sim > δsim, not the value.
// A cheap upper bound on Sim that already falls at or below δsim proves the
// verdict "no" without the exact O(|SF|+|TF|) CommonSeverity merge-scans.
// The bound is conservative (never below the true similarity), so pruning
// is exact-safe: fast-path on/off produce bit-identical integration output.

// How many pairwise similarity evaluations took the exact path vs. were
// answered by the upper bound alone.  exact_scans + pruned_scans equals the
// number of evaluations the pure exact path would have scanned.
struct SimilarityScanStats {
  uint64_t exact_scans = 0;
  uint64_t pruned_scans = 0;

  SimilarityScanStats& operator+=(const SimilarityScanStats& o) {
    exact_scans += o.exact_scans;
    pruned_scans += o.pruned_scans;
    return *this;
  }
};

// Upper bound on Similarity(c1, c2, g) computed from the clusters'
// feature signatures, totals, max entry severities and severity sketches —
// O(kSignatureBuckets/64) words of work, no entry scans.  Guaranteed
// ≥ Similarity(c1, c2, g) (FP slack included; see DESIGN §11).
ATYPICAL_HOT double SimilarityUpperBound(const AtypicalCluster& c1,
                                         const AtypicalCluster& c2,
                                         BalanceFunction g);

// The drivers' entry point: exactly `Similarity(c1, c2, g) > delta_sim`,
// but answered via staged upper bounds when they already settle the verdict.
// With use_fast_path=false this is a plain exact evaluation (the baseline
// the property tests compare against).  `stats`, if non-null, is updated.
ATYPICAL_HOT bool ExceedsThreshold(const AtypicalCluster& c1,
                                   const AtypicalCluster& c2,
                                   BalanceFunction g, double delta_sim,
                                   SimilarityScanStats* stats = nullptr,
                                   bool use_fast_path = true);

}  // namespace atypical

#endif  // ATYPICAL_CORE_SIMILARITY_H_
