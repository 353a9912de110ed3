// The similarity fast path (DESIGN §11) must be invisible in results: with
// use_similarity_fast_path on or off, integration must produce bit-identical
// output — same partition, same features, same ids — for every balance
// function, threshold and input permutation.  This file property-tests that
// contract end to end, and pins the boundary of the stage-0 "no shared
// sensor, no merge" rule that limits the driver's candidates.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/integration.h"
#include "core/similarity.h"
#include "util/random.h"

namespace atypical {
namespace {

constexpr BalanceFunction kAllBalanceFunctions[] = {
    BalanceFunction::kMax, BalanceFunction::kMin,
    BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
    BalanceFunction::kHarmonicMean};

std::vector<AtypicalCluster> RandomMicros(int count, uint32_t key_space,
                                          int keys_per_cluster, uint64_t seed,
                                          ClusterIdGenerator* ids) {
  Rng rng(seed);
  std::vector<AtypicalCluster> out;
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c;
    c.id = ids->Next();
    c.micro_ids = {c.id};
    c.first_day = static_cast<int>(rng.UniformInt(uint64_t{30}));
    c.last_day = c.first_day;
    c.num_records = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    for (int j = 0; j < keys_per_cluster; ++j) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
                    severity);
      c.temporal.Add(
          static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
          severity);
    }
    out.push_back(std::move(c));
  }
  return out;
}

void ExpectIdentical(const std::vector<AtypicalCluster>& a,
                     const std::vector<AtypicalCluster>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].id, b[i].id) << "cluster " << i;
    EXPECT_EQ(a[i].spatial, b[i].spatial) << "cluster " << i;
    EXPECT_EQ(a[i].temporal, b[i].temporal) << "cluster " << i;
    EXPECT_EQ(a[i].key_mode, b[i].key_mode) << "cluster " << i;
    EXPECT_EQ(a[i].micro_ids, b[i].micro_ids) << "cluster " << i;
    EXPECT_EQ(a[i].left_child, b[i].left_child) << "cluster " << i;
    EXPECT_EQ(a[i].right_child, b[i].right_child) << "cluster " << i;
    EXPECT_EQ(a[i].first_day, b[i].first_day) << "cluster " << i;
    EXPECT_EQ(a[i].last_day, b[i].last_day) << "cluster " << i;
    EXPECT_EQ(a[i].num_records, b[i].num_records) << "cluster " << i;
  }
}

std::pair<std::vector<AtypicalCluster>, std::vector<AtypicalCluster>>
RunFastAndExact(const std::vector<AtypicalCluster>& micros,
                IntegrationParams params,
                IntegrationStats* fast_stats = nullptr,
                IntegrationStats* exact_stats = nullptr) {
  params.use_similarity_fast_path = true;
  ClusterIdGenerator fast_ids(100000);
  auto fast = IntegrateClusters(micros, params, &fast_ids, fast_stats);
  params.use_similarity_fast_path = false;
  ClusterIdGenerator exact_ids(100000);
  auto exact = IntegrateClusters(micros, params, &exact_ids, exact_stats);
  return {std::move(fast), std::move(exact)};
}

TEST(SimilarityFastPathPropertyTest, BitIdenticalAcrossFunctionsAndDeltas) {
  for (const BalanceFunction g : kAllBalanceFunctions) {
    for (const double delta_sim : {0.2, 0.45, 0.7}) {
      for (uint64_t seed = 1; seed <= 2; ++seed) {
        ClusterIdGenerator ids(1);
        const std::vector<AtypicalCluster> micros =
            RandomMicros(80, 12, 5, seed, &ids);
        IntegrationParams params;
        params.g = g;
        params.delta_sim = delta_sim;
        IntegrationStats fast_stats;
        IntegrationStats exact_stats;
        const auto [fast, exact] =
            RunFastAndExact(micros, params, &fast_stats, &exact_stats);
        SCOPED_TRACE(std::string("g=") + BalanceFunctionName(g));
        ExpectIdentical(fast, exact);
        // Identical verdicts imply identical merge sequences, so the fast
        // path's counters must partition the exact path's scan count.
        EXPECT_EQ(fast_stats.exact_scans + fast_stats.pruned_scans,
                  exact_stats.exact_scans)
            << "delta=" << delta_sim << " seed=" << seed;
      }
    }
  }
}

TEST(SimilarityFastPathPropertyTest, BitIdenticalUnderInputPermutations) {
  // Hard clustering is order-dependent, so permuting the input changes the
  // output — but fast on/off must stay identical for each permutation.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RandomMicros(70, 10, 5, 99, &ids);
  Rng rng(314159);
  for (int round = 0; round < 4; ++round) {
    for (size_t i = micros.size(); i > 1; --i) {
      std::swap(micros[i - 1], micros[rng.UniformInt(uint64_t{i})]);
    }
    IntegrationParams params;
    params.delta_sim = 0.45;
    const auto [fast, exact] = RunFastAndExact(micros, params);
    ExpectIdentical(fast, exact);
  }
}

TEST(SimilarityFastPathPropertyTest, FastPathPrunesTheScanBoundSeedWorkload) {
  // The acceptance bar: on the bench_integration workload (dense overlap,
  // key space 48, 24 adds per feature, δsim 0.7 — the scan-bound regime
  // where merges are rare and candidate scans dominate) the fast path must
  // answer at least half of all evaluations from the bound alone.
  ClusterIdGenerator ids(1);
  const std::vector<AtypicalCluster> micros =
      RandomMicros(300, 48, 24, 2024, &ids);
  IntegrationParams params;
  params.delta_sim = 0.7;
  IntegrationStats fast_stats;
  IntegrationStats exact_stats;
  const auto [fast, exact] =
      RunFastAndExact(micros, params, &fast_stats, &exact_stats);
  ExpectIdentical(fast, exact);
  ASSERT_GT(exact_stats.exact_scans, 0u);
  EXPECT_LE(2 * fast_stats.exact_scans, exact_stats.exact_scans)
      << "pruned=" << fast_stats.pruned_scans
      << " exact=" << fast_stats.exact_scans;
}

TEST(SimilarityFastPathPropertyTest, CollapseRegimeOnlyScansTrueMerges) {
  // Below this population's snowball point (δsim 0.6) the run collapses to
  // a single macro-cluster and n-1 verdicts are true merges — exact scans
  // the bound can never skip, since an upper bound only proves "does not
  // exceed".  With this seed the bound prunes every failing verdict, so the
  // fast path's exact-scan count sits exactly on that merge floor.
  ClusterIdGenerator ids(1);
  const std::vector<AtypicalCluster> micros =
      RandomMicros(300, 48, 24, 2024, &ids);
  IntegrationParams params;
  params.delta_sim = 0.6;
  IntegrationStats fast_stats;
  IntegrationStats exact_stats;
  const auto [fast, exact] =
      RunFastAndExact(micros, params, &fast_stats, &exact_stats);
  ExpectIdentical(fast, exact);
  ASSERT_EQ(fast.size(), 1u);
  EXPECT_EQ(fast_stats.exact_scans,
            static_cast<uint64_t>(fast_stats.merges));
  EXPECT_GT(fast_stats.pruned_scans, 0u);
}

// ---- stage-0 rule boundary ----

// Two micros with identical temporal features (SimTF == 1.0 exactly) and no
// shared sensor (SimSF == 0.0): Sim is exactly 0.5 under every g.
std::vector<AtypicalCluster> SameWindowsNoSharedSensor() {
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros(2);
  for (uint32_t i = 0; i < 2; ++i) {
    AtypicalCluster& c = micros[i];
    c.id = ids.Next();
    c.micro_ids = {c.id};
    c.spatial.Add(10 + i, 6.0);
    c.spatial.Add(20 + i, 4.0);
    c.temporal.Add(3, 7.0);
    c.temporal.Add(4, 3.0);
  }
  return micros;
}

TEST(StageZeroRuleTest, PairAtExactlyHalfDoesNotMergeAndIsNeverACandidate) {
  const std::vector<AtypicalCluster> micros = SameWindowsNoSharedSensor();
  for (const BalanceFunction g : kAllBalanceFunctions) {
    SCOPED_TRACE(std::string("g=") + BalanceFunctionName(g));
    ASSERT_EQ(TemporalSimilarity(micros[0], micros[1], g), 1.0);
    ASSERT_EQ(SpatialSimilarity(micros[0], micros[1], g), 0.0);
    ASSERT_EQ(Similarity(micros[0], micros[1], g), 0.5);
    IntegrationParams params;
    params.g = g;
    params.delta_sim = 0.5;  // 0.5 is not > 0.5
    IntegrationStats fast_stats;
    IntegrationStats exact_stats;
    const auto [fast, exact] =
        RunFastAndExact(micros, params, &fast_stats, &exact_stats);
    EXPECT_EQ(fast.size(), 2u);
    ExpectIdentical(fast, exact);
    // The slots share no sensor, so neither is ever the other's candidate:
    // no pair is evaluated, with or without the fast path.
    EXPECT_EQ(fast_stats.similarity_checks, 0u);
    EXPECT_EQ(exact_stats.similarity_checks, 0u);
  }
}

TEST(StageZeroRuleTest, BelowHalfTheRuleIsOffAndTimeAloneMerges) {
  const std::vector<AtypicalCluster> micros = SameWindowsNoSharedSensor();
  for (const BalanceFunction g : kAllBalanceFunctions) {
    SCOPED_TRACE(std::string("g=") + BalanceFunctionName(g));
    IntegrationParams params;
    params.g = g;
    params.delta_sim = 0.4;
    IntegrationStats fast_stats;
    const auto [fast, exact] = RunFastAndExact(micros, params, &fast_stats);
    ASSERT_EQ(fast.size(), 1u);
    ExpectIdentical(fast, exact);
    EXPECT_EQ(fast_stats.merges, 1u);
    EXPECT_EQ(fast_stats.exact_scans, 1u);
  }
}

TEST(StageZeroRuleTest, HarmonicMeanOfFractionsBelowOneStaysAtMostOne) {
  // The rule's proof needs Balance(g, p1, p2) <= 1.0 for clamped fractions.
  // For the harmonic mean 2·p1·p2 <= p1 + p2 holds exactly, and rounding is
  // monotone, so the quotient cannot round above 1 — pinned here for the
  // fractions nearest 1.
  double p1 = 1.0;
  for (int i = 0; i < 64; ++i) {
    double p2 = 1.0;
    for (int j = 0; j < 64; ++j) {
      for (const BalanceFunction g : kAllBalanceFunctions) {
        ASSERT_LE(Balance(g, p1, p2), 1.0)
            << BalanceFunctionName(g) << " p1=" << p1 << " p2=" << p2;
      }
      p2 = std::nextafter(p2, 0.0);
    }
    p1 = std::nextafter(p1, 0.0);
  }
  // End to end: one tiny non-shared window puts each TF fraction just below
  // 1.0, and the pair still does not merge at δsim = 0.5.  (The matching
  // sensor mass keeps Σμ == Σν.)
  std::vector<AtypicalCluster> micros = SameWindowsNoSharedSensor();
  for (uint32_t i = 0; i < 2; ++i) {
    micros[i].temporal.Add(8 + i, 0x1p-46);
    micros[i].spatial.Add(30 + i, 0x1p-46);
  }
  const double tf = TemporalSimilarity(micros[0], micros[1],
                                       BalanceFunction::kHarmonicMean);
  EXPECT_LT(tf, 1.0);
  EXPECT_GT(tf, 0.999);
  IntegrationParams params;
  params.g = BalanceFunction::kHarmonicMean;
  const auto [fast, exact] = RunFastAndExact(micros, params);
  EXPECT_EQ(fast.size(), 2u);
  ExpectIdentical(fast, exact);
}

}  // namespace
}  // namespace atypical
