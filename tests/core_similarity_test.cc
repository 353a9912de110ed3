#include "core/similarity.h"

#include <gtest/gtest.h>

#include "util/random.h"

namespace atypical {
namespace {

AtypicalCluster MakeCluster(std::vector<std::pair<uint32_t, double>> sf,
                            std::vector<std::pair<uint32_t, double>> tf) {
  AtypicalCluster c;
  for (const auto& [k, v] : sf) c.spatial.Add(k, v);
  for (const auto& [k, v] : tf) c.temporal.Add(k, v);
  return c;
}

TEST(BalanceTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Balance(BalanceFunction::kMax, 0.2, 0.8), 0.8);
  EXPECT_DOUBLE_EQ(Balance(BalanceFunction::kMin, 0.2, 0.8), 0.2);
  EXPECT_DOUBLE_EQ(Balance(BalanceFunction::kArithmeticMean, 0.2, 0.8), 0.5);
  EXPECT_DOUBLE_EQ(Balance(BalanceFunction::kGeometricMean, 0.25, 1.0), 0.5);
  EXPECT_DOUBLE_EQ(Balance(BalanceFunction::kHarmonicMean, 0.5, 1.0),
                   2.0 / 3.0);
}

TEST(BalanceTest, HarmonicMeanOfZerosIsZero) {
  EXPECT_DOUBLE_EQ(Balance(BalanceFunction::kHarmonicMean, 0.0, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(Balance(BalanceFunction::kHarmonicMean, 0.0, 0.5), 0.0);
}

TEST(BalanceTest, ClassicalMeanInequalityChain) {
  // min ≤ harmonic ≤ geometric ≤ arithmetic ≤ max for p1, p2 in (0, 1].
  Rng rng(3);
  for (int i = 0; i < 1000; ++i) {
    const double p1 = rng.Uniform(0.01, 1.0);
    const double p2 = rng.Uniform(0.01, 1.0);
    const double mn = Balance(BalanceFunction::kMin, p1, p2);
    const double har = Balance(BalanceFunction::kHarmonicMean, p1, p2);
    const double geo = Balance(BalanceFunction::kGeometricMean, p1, p2);
    const double avg = Balance(BalanceFunction::kArithmeticMean, p1, p2);
    const double mx = Balance(BalanceFunction::kMax, p1, p2);
    EXPECT_LE(mn, har + 1e-12);
    EXPECT_LE(har, geo + 1e-12);
    EXPECT_LE(geo, avg + 1e-12);
    EXPECT_LE(avg, mx + 1e-12);
  }
}

TEST(BalanceFunctionNameTest, NamesMatchPaperFigure21) {
  EXPECT_STREQ(BalanceFunctionName(BalanceFunction::kMax), "max");
  EXPECT_STREQ(BalanceFunctionName(BalanceFunction::kMin), "min");
  EXPECT_STREQ(BalanceFunctionName(BalanceFunction::kArithmeticMean), "avg");
  EXPECT_STREQ(BalanceFunctionName(BalanceFunction::kGeometricMean), "geo");
  EXPECT_STREQ(BalanceFunctionName(BalanceFunction::kHarmonicMean), "har");
}

TEST(SimilarityTest, IdenticalClustersScoreOne) {
  const AtypicalCluster c = MakeCluster({{1, 10}, {2, 20}}, {{5, 15}, {6, 15}});
  for (const BalanceFunction g :
       {BalanceFunction::kMax, BalanceFunction::kMin,
        BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
        BalanceFunction::kHarmonicMean}) {
    EXPECT_DOUBLE_EQ(Similarity(c, c, g), 1.0);
  }
}

TEST(SimilarityTest, DisjointClustersScoreZero) {
  const AtypicalCluster a = MakeCluster({{1, 10}}, {{5, 10}});
  const AtypicalCluster b = MakeCluster({{2, 10}}, {{6, 10}});
  EXPECT_DOUBLE_EQ(Similarity(a, b, BalanceFunction::kMax), 0.0);
}

TEST(SimilarityTest, HandComputedEq3Example) {
  // a: sensors {1:30, 2:10}; b: sensors {2:5, 3:15}.
  // Common key {2}: a fraction = 10/40 = 0.25, b fraction = 5/20 = 0.25.
  const AtypicalCluster a = MakeCluster({{1, 30}, {2, 10}}, {{7, 40}});
  const AtypicalCluster b = MakeCluster({{2, 5}, {3, 15}}, {{7, 20}});
  EXPECT_DOUBLE_EQ(SpatialSimilarity(a, b, BalanceFunction::kArithmeticMean),
                   0.25);
  // Temporal features fully overlap: fractions are 1 and 1.
  EXPECT_DOUBLE_EQ(TemporalSimilarity(a, b, BalanceFunction::kMin), 1.0);
  // Eq. 2: ½(0.25 + 1.0).
  EXPECT_DOUBLE_EQ(Similarity(a, b, BalanceFunction::kArithmeticMean), 0.625);
}

TEST(SimilarityTest, MaxForgivesAsymmetricSizes) {
  // A large cluster fully containing a small one: the small one's common
  // fraction is 1.0, the large one's is small.  max keeps them similar
  // (the paper's §III.C rationale), min does not.
  AtypicalCluster big;
  for (uint32_t s = 0; s < 100; ++s) big.spatial.Add(s, 10.0);
  big.temporal.Add(1, 1000.0);
  AtypicalCluster small = MakeCluster({{0, 5}, {1, 5}}, {{1, 10}});
  const double sf_max = SpatialSimilarity(big, small, BalanceFunction::kMax);
  const double sf_min = SpatialSimilarity(big, small, BalanceFunction::kMin);
  EXPECT_DOUBLE_EQ(sf_max, 1.0);
  EXPECT_NEAR(sf_min, 0.02, 1e-12);
}

TEST(SimilarityTest, SymmetricInArguments) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    AtypicalCluster a;
    AtypicalCluster b;
    for (int i = 0; i < 10; ++i) {
      a.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{16})),
                    rng.Uniform(1.0, 9.0));
      b.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{16})),
                    rng.Uniform(1.0, 9.0));
      a.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{8})),
                     rng.Uniform(1.0, 9.0));
      b.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{8})),
                     rng.Uniform(1.0, 9.0));
    }
    for (const BalanceFunction g :
         {BalanceFunction::kMax, BalanceFunction::kMin,
          BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
          BalanceFunction::kHarmonicMean}) {
      EXPECT_NEAR(Similarity(a, b, g), Similarity(b, a, g), 1e-12);
    }
  }
}

TEST(SimilarityTest, ScoresAlwaysInUnitInterval) {
  Rng rng(11);
  for (int trial = 0; trial < 200; ++trial) {
    AtypicalCluster a;
    AtypicalCluster b;
    const int na = 1 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    const int nb = 1 + static_cast<int>(rng.UniformInt(uint64_t{12}));
    for (int i = 0; i < na; ++i) {
      a.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{10})), 1.0);
      a.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{10})), 1.0);
    }
    for (int i = 0; i < nb; ++i) {
      b.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{10})), 1.0);
      b.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{10})), 1.0);
    }
    for (const BalanceFunction g :
         {BalanceFunction::kMax, BalanceFunction::kMin,
          BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
          BalanceFunction::kHarmonicMean}) {
      const double sim = Similarity(a, b, g);
      EXPECT_GE(sim, 0.0);
      EXPECT_LE(sim, 1.0);
    }
  }
}

TEST(SimilarityTest, EmptyClusterScoresZero) {
  const AtypicalCluster empty;
  const AtypicalCluster c = MakeCluster({{1, 10}}, {{2, 10}});
  EXPECT_DOUBLE_EQ(Similarity(empty, c, BalanceFunction::kMax), 0.0);
  EXPECT_DOUBLE_EQ(Similarity(empty, empty, BalanceFunction::kMax), 0.0);
}

TEST(SimilarityDeathTest, MixedKeyModesDie) {
  AtypicalCluster a = MakeCluster({{1, 10}}, {{2, 10}});
  AtypicalCluster b = MakeCluster({{1, 10}}, {{2, 10}});
  b.key_mode = TemporalKeyMode::kTimeOfDay;
  EXPECT_DEATH((void)TemporalSimilarity(a, b, BalanceFunction::kMax),
               "key modes");
}

TEST(SimilarityTest, LargeTotalAccumulationStress) {
  // Regression for the 1e-9 absolute DCHECK slack that aborted Debug builds
  // on valid large inputs.  FeatureVector::total_ is an add-order running
  // sum while CommonSeverity() re-sums per-entry severities, so the two can
  // disagree by accumulated rounding.  Construct the worst case cheaply: a
  // 2^53 entry (ulp = 2) at key 0 absorbs every later v < 1 added to
  // total_, while the key-1 entry accumulates the same adds exactly — the
  // common/total fraction lands near 1 + 2.5e-9, past the old slack.
  constexpr double kBig = 9007199254740992.0;  // 2^53
  AtypicalCluster a;
  a.spatial.Add(0, kBig);
  a.temporal.Add(0, kBig);
  Rng rng(29);
  for (int i = 0; i < 30'000'000; ++i) {
    const double v = rng.Uniform(0.5, 1.0);
    a.spatial.Add(1, v);
    a.temporal.Add(1, v);
  }
  // The partner covers both keys, so all of a's mass is "common" and a's
  // fraction is the inflated common/total ratio.
  const AtypicalCluster b = MakeCluster({{0, 1}, {1, 1}}, {{0, 1}, {1, 1}});
  ASSERT_GT(a.spatial.Get(1) / a.spatial.total(), 1e-9)
      << "stress input no longer exceeds the old absolute slack";
  for (const BalanceFunction g :
       {BalanceFunction::kMax, BalanceFunction::kMin,
        BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
        BalanceFunction::kHarmonicMean}) {
    const double sim = Similarity(a, b, g);  // pre-fix: DCHECK aborts here
    EXPECT_GE(sim, 0.0);
    EXPECT_LE(sim, 1.0);
  }
  // Clamping pins the inflated fraction to exactly 1, so max-balance scores
  // a perfect match.
  EXPECT_DOUBLE_EQ(Similarity(a, b, BalanceFunction::kMax), 1.0);
}

TEST(SimilarityTest, PaperExampleMorningVsEvening) {
  // Fig. 7: CA and CB share sensors but never congest at the same time of
  // day; their temporal similarity is 0, halving the overall score.
  const AtypicalCluster morning =
      MakeCluster({{1, 182}, {2, 97}, {3, 33}}, {{32, 150}, {33, 162}});
  const AtypicalCluster evening =
      MakeCluster({{1, 12}, {2, 51}, {3, 34}}, {{73, 50}, {74, 47}});
  EXPECT_DOUBLE_EQ(
      TemporalSimilarity(morning, evening, BalanceFunction::kArithmeticMean),
      0.0);
  EXPECT_GT(
      SpatialSimilarity(morning, evening, BalanceFunction::kArithmeticMean),
      0.9);
  // With δsim = 0.5 they must not merge: Sim ≤ 0.5 strictly.
  EXPECT_LE(Similarity(morning, evening, BalanceFunction::kArithmeticMean),
            0.5);
}

}  // namespace
}  // namespace atypical
