// The similarity fast path (DESIGN §11) must be invisible in results: with
// use_similarity_fast_path on or off, integration must produce bit-identical
// output — same partition, same features, same ids — for every balance
// function, threshold and input permutation.  This file property-tests that
// contract end to end, and unit-tests the candidate-index compaction that
// rides the same merge path.
#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/integration.h"
#include "core/integration_internal.h"
#include "core/similarity.h"
#include "util/random.h"

namespace atypical {
namespace {

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
  for (const BalanceFunction g :
       {BalanceFunction::kMax, BalanceFunction::kMin,
        BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
        BalanceFunction::kHarmonicMean}) {
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

TEST(SimilarityFastPathPropertyTest, BitIdenticalWithoutCandidateIndex) {
  ClusterIdGenerator ids(1);
  const std::vector<AtypicalCluster> micros = RandomMicros(60, 8, 5, 7, &ids);
  IntegrationParams params;
  params.use_candidate_index = false;
  params.delta_sim = 0.4;
  const auto [fast, exact] = RunFastAndExact(micros, params);
  ExpectIdentical(fast, exact);
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

// ---- candidate-index compaction ----

using integration_internal::CandidateIndex;

TEST(CandidateIndexTest, CompactionPreservesCandidateSets) {
  // 16 clusters, 4 spatial + 4 temporal keys each, heavy key sharing.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> clusters;
  for (uint32_t i = 0; i < 16; ++i) {
    AtypicalCluster c;
    c.id = ids.Next();
    for (uint32_t j = 0; j < 4; ++j) {
      c.spatial.Add((i + j) % 8, 1.0);
      c.temporal.Add((i + 2 * j) % 8, 1.0);
    }
    clusters.push_back(std::move(c));
  }
  std::vector<bool> alive(clusters.size(), true);
  CandidateIndex index(clusters.size());
  for (uint32_t i = 0; i < clusters.size(); ++i) index.AddKeys(clusters[i], i);
  index.SealBaseline();
  // Below the watermark nothing compacts.
  EXPECT_FALSE(index.MaybeCompact(alive));

  // Simulate a run of merges: slot 0 absorbs slots 7..15, whose keys are
  // re-posted under slot 0 and whose own postings go stale.
  for (uint32_t j = 7; j < 16; ++j) {
    index.AddKeys(clusters[j], 0);
    alive[j] = false;
  }
  std::vector<uint32_t> before;
  index.Candidates(clusters[0], 0, alive, &before);

  // 128 baseline postings + 72 re-posts exceeds the 1.5× watermark (192).
  EXPECT_TRUE(index.MaybeCompact(alive));
  std::vector<uint32_t> after;
  index.Candidates(clusters[0], 0, alive, &after);
  EXPECT_EQ(before, after);
  for (uint32_t slot : after) {
    EXPECT_TRUE(alive[slot]);
    EXPECT_NE(slot, 0u);
  }
  // Freshly re-armed at 2× the surviving size: no immediate re-trigger.
  EXPECT_FALSE(index.MaybeCompact(alive));
}

TEST(CandidateIndexTest, UnsealedIndexNeverCompacts) {
  AtypicalCluster c;
  for (uint32_t k = 0; k < 40; ++k) c.spatial.Add(k, 1.0);
  std::vector<bool> alive(4, true);
  CandidateIndex index(4);
  for (uint32_t i = 0; i < 4; ++i) index.AddKeys(c, i);
  EXPECT_FALSE(index.MaybeCompact(alive));  // no SealBaseline() call
}

TEST(CandidateIndexTest, IntegrationRunCompactsOnCollapsingWorkload) {
  // Identical micros all collapse into one macro: every merge re-posts a
  // full cluster's keys, crossing the 1.5× watermark mid-run.  Output must
  // match the naive (index-free) driver exactly.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  for (int i = 0; i < 100; ++i) {
    AtypicalCluster c;
    c.id = ids.Next();
    c.micro_ids = {c.id};
    for (uint32_t k = 0; k < 4; ++k) {
      c.spatial.Add(k, 2.0);
      c.temporal.Add(k + 10, 3.0);
    }
    micros.push_back(std::move(c));
  }
  IntegrationParams indexed;
  indexed.delta_sim = 0.15;
  IntegrationParams naive = indexed;
  naive.use_candidate_index = false;
  IntegrationStats indexed_stats;
  IntegrationStats naive_stats;
  ClusterIdGenerator ids_a(1000);
  ClusterIdGenerator ids_b(1000);
  const auto a = IntegrateClusters(micros, indexed, &ids_a, &indexed_stats);
  const auto b = IntegrateClusters(micros, naive, &ids_b, &naive_stats);
  ExpectIdentical(a, b);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_GT(indexed_stats.index_compactions, 0u);
  EXPECT_EQ(naive_stats.index_compactions, 0u);
}

}  // namespace
}  // namespace atypical
