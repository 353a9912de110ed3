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

}  // namespace atypical

#endif  // ATYPICAL_CORE_SIMILARITY_H_
