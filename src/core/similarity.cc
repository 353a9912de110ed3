#include "core/similarity.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace atypical {

const char* BalanceFunctionName(BalanceFunction g) {
  switch (g) {
    case BalanceFunction::kMax:
      return "max";
    case BalanceFunction::kMin:
      return "min";
    case BalanceFunction::kArithmeticMean:
      return "avg";
    case BalanceFunction::kGeometricMean:
      return "geo";
    case BalanceFunction::kHarmonicMean:
      return "har";
  }
  return "unknown";
}

double Balance(BalanceFunction g, double p1, double p2) {
  switch (g) {
    case BalanceFunction::kMax:
      return std::max(p1, p2);
    case BalanceFunction::kMin:
      return std::min(p1, p2);
    case BalanceFunction::kArithmeticMean:
      return 0.5 * (p1 + p2);
    case BalanceFunction::kGeometricMean:
      return std::sqrt(p1 * p2);
    case BalanceFunction::kHarmonicMean:
      return p1 + p2 > 0.0 ? 2.0 * p1 * p2 / (p1 + p2) : 0.0;
  }
  LOG(FATAL) << "unknown BalanceFunction";
  return 0.0;
}

namespace {

double FeatureSimilarity(const FeatureVector& f1, const FeatureVector& f2,
                         BalanceFunction g) {
  if (f1.total() <= 0.0 || f2.total() <= 0.0) return 0.0;
  const auto [common1, common2] = f1.CommonSeverity(f2);
  double p1 = common1 / f1.total();
  double p2 = common2 / f2.total();
  // Common severity is a sub-sum of the total, so both fractions live in
  // [0, 1] mathematically — but total_ accumulates in Add/Merge order while
  // CommonSeverity sums in key order, and the orders can disagree by one
  // rounding step per accumulation.  The slack is therefore relative (1e-6
  // covers ~2^33 ULP-scale steps), not an absolute epsilon: million-record
  // clusters legitimately overshoot 1 + 1e-9.  Beyond the slack it is a
  // real bug, not rounding.  The fractions are then clamped so Balance and
  // every caller see exact [0, 1].
  constexpr double kAccumulationSlack = 1e-6;
  DCHECK_GE(p1, 0.0);
  DCHECK_LE(p1, 1.0 + kAccumulationSlack);
  DCHECK_GE(p2, 0.0);
  DCHECK_LE(p2, 1.0 + kAccumulationSlack);
  p1 = std::min(p1, 1.0);
  p2 = std::min(p2, 1.0);
  return Balance(g, p1, p2);
}

}  // namespace

double SpatialSimilarity(const AtypicalCluster& c1, const AtypicalCluster& c2,
                         BalanceFunction g) {
  return FeatureSimilarity(c1.spatial, c2.spatial, g);
}

double TemporalSimilarity(const AtypicalCluster& c1, const AtypicalCluster& c2,
                          BalanceFunction g) {
  CHECK(c1.key_mode == c2.key_mode)
      << "temporal similarity across different key modes is meaningless";
  return FeatureSimilarity(c1.temporal, c2.temporal, g);
}

double Similarity(const AtypicalCluster& c1, const AtypicalCluster& c2,
                  BalanceFunction g) {
  const double sim =
      0.5 * (SpatialSimilarity(c1, c2, g) + TemporalSimilarity(c1, c2, g));
  // FeatureSimilarity clamps its fractions into [0, 1], so the mean is
  // exactly bounded — no tolerance needed here.
  DCHECK_GE(sim, 0.0);
  DCHECK_LE(sim, 1.0) << "Eq. 2 is a mean of fractions";
  return sim;
}

}  // namespace atypical
