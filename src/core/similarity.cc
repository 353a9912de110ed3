#include "core/similarity.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstddef>

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

// Whether the pure exact path runs at least one CommonSeverity scan for the
// pair (FeatureSimilarity skips the scan when either total is 0).  Only such
// evaluations are counted in SimilarityScanStats, so exact + pruned always
// sums to the exact path's scan count.
bool RunsExactScan(const AtypicalCluster& c1, const AtypicalCluster& c2) {
  return (c1.spatial.total() > 0.0 && c2.spatial.total() > 0.0) ||
         (c1.temporal.total() > 0.0 && c2.temporal.total() > 0.0);
}

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

// Σ of f's per-bucket severity mass over the buckets both signatures
// occupy.  Every key f shares with the other vector lives in a common
// bucket, so this dominates f's true common severity.  O(popcount) work.
double SketchOverlapMass(const FeatureVector& f,
                         const FeatureVector::Signature& a,
                         const FeatureVector::Signature& b) {
  const auto& sketch = f.severity_sketch();
  double mass = 0.0;
  for (int word = 0; word < 2; ++word) {
    uint64_t bits = a.bucket_bits[word] & b.bucket_bits[word];
    while (bits != 0) {
      const int bit = std::countr_zero(bits);
      mass += sketch[static_cast<size_t>(word * 64 + bit)];
      bits &= bits - 1;
    }
  }
  return mass;
}

// Upper bound on FeatureSimilarity(f1, f2, g) from summaries alone.
//
// For each side, the common severity (the numerator of Eq. 3/4) is at most
//   · the side's total,
//   · (#keys both sides can share) × its max entry severity, and
//   · its severity mass in the hash buckets both signatures occupy.
// Dividing by the total and clamping to 1 bounds the fraction; Balance is
// monotone nondecreasing in each fraction for all five g, so applying it to
// the bounded fractions bounds the similarity.  The closing inflation
// absorbs FP rounding (the exact path sums in key order, the summaries in
// Add/Merge order), keeping the bound conservative-only — see DESIGN §11.
double FeatureUpperBound(const FeatureVector& f1, const FeatureVector& f2,
                         BalanceFunction g) {
  if (f1.total() <= 0.0 || f2.total() <= 0.0) return 0.0;
  const FeatureVector::Signature& s1 = f1.signature();
  const FeatureVector::Signature& s2 = f2.signature();
  if (s1.Disjoint(s2)) return 0.0;
  const uint32_t lo = std::max(s1.min_key, s2.min_key);
  const uint32_t hi = std::min(s1.max_key, s2.max_key);
  const double n_common = static_cast<double>(
      std::min(f1.CountKeysInRange(lo, hi), f2.CountKeysInRange(lo, hi)));
  const double ub1 =
      std::min({f1.total(), n_common * f1.max_entry_severity(),
                SketchOverlapMass(f1, s1, s2)});
  const double ub2 =
      std::min({f2.total(), n_common * f2.max_entry_severity(),
                SketchOverlapMass(f2, s1, s2)});
  const double p1 = std::min(ub1 / f1.total(), 1.0);
  const double p2 = std::min(ub2 / f2.total(), 1.0);
  return Balance(g, p1, p2) * (1.0 + 1e-9) + 1e-12;
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

double SimilarityUpperBound(const AtypicalCluster& c1,
                            const AtypicalCluster& c2, BalanceFunction g) {
  CHECK(c1.key_mode == c2.key_mode)
      << "temporal similarity across different key modes is meaningless";
  return 0.5 * (FeatureUpperBound(c1.spatial, c2.spatial, g) +
                FeatureUpperBound(c1.temporal, c2.temporal, g));
}

bool ExceedsThreshold(const AtypicalCluster& c1, const AtypicalCluster& c2,
                      BalanceFunction g, double delta_sim,
                      SimilarityScanStats* stats, bool use_fast_path) {
  CHECK(c1.key_mode == c2.key_mode)
      << "temporal similarity across different key modes is meaningless";
  const bool scannable = RunsExactScan(c1, c2);
  if (!use_fast_path) {
    if (stats != nullptr && scannable) ++stats->exact_scans;
    return Similarity(c1, c2, g) > delta_sim;
  }
  // Stage 1: signature-only bounds on both features.  sf ≤ sf_ub and
  // tf ≤ tf_ub, and FP addition/halving are monotone, so
  // 0.5·(sf+tf) ≤ 0.5·(sf_ub+tf_ub) holds bit-for-bit — a "no" here is a
  // proof the exact verdict is "no".
  const double sf_ub = FeatureUpperBound(c1.spatial, c2.spatial, g);
  const double tf_ub = FeatureUpperBound(c1.temporal, c2.temporal, g);
  if (0.5 * (sf_ub + tf_ub) <= delta_sim) {
    if (stats != nullptr && scannable) ++stats->pruned_scans;
    return false;
  }
  // Stage 2: exact SF, still-bounded TF — saves the TF scan when the exact
  // spatial term already sinks the pair.  Counts as an exact scan.
  const double sf = FeatureSimilarity(c1.spatial, c2.spatial, g);
  if (stats != nullptr && scannable) ++stats->exact_scans;
  if (0.5 * (sf + tf_ub) <= delta_sim) return false;
  // Stage 3: the exact expression, identical to Similarity().
  const double tf = FeatureSimilarity(c1.temporal, c2.temporal, g);
  const double sim = 0.5 * (sf + tf);
  DCHECK_GE(sim, 0.0);
  DCHECK_LE(sim, 1.0) << "Eq. 2 is a mean of fractions";
  return sim > delta_sim;
}

}  // namespace atypical
