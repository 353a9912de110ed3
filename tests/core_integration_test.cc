// Algorithm 3: cluster integration — fixpoint semantics, the stage-0
// candidate rule, degradation budgets and micro-id bookkeeping.
#include "core/integration.h"

#include <cmath>
#include <set>
#include <string>

#include <gtest/gtest.h>

#include "core/merge.h"
#include "util/random.h"

namespace atypical {
namespace {

AtypicalCluster MakeMicro(ClusterIdGenerator* ids,
                          std::vector<std::pair<uint32_t, double>> sf,
                          std::vector<std::pair<uint32_t, double>> tf) {
  AtypicalCluster c;
  c.id = ids->Next();
  c.micro_ids = {c.id};
  for (const auto& [k, v] : sf) c.spatial.Add(k, v);
  for (const auto& [k, v] : tf) c.temporal.Add(k, v);
  return c;
}

std::vector<AtypicalCluster> RandomMicros(int count, uint32_t key_space,
                                          Rng& rng, ClusterIdGenerator* ids) {
  std::vector<AtypicalCluster> out;
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c;
    c.id = ids->Next();
    c.micro_ids = {c.id};
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    for (int j = 0; j < n; ++j) {
      c.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
                    rng.Uniform(1.0, 10.0));
      c.temporal.Add(
          static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
          rng.Uniform(1.0, 10.0));
    }
    out.push_back(std::move(c));
  }
  return out;
}

TEST(IntegrationTest, EmptyAndSingletonInputs) {
  ClusterIdGenerator ids(1);
  IntegrationParams params;
  EXPECT_TRUE(IntegrateClusters({}, params, &ids).empty());

  std::vector<AtypicalCluster> one;
  one.push_back(MakeMicro(&ids, {{1, 5.0}}, {{1, 5.0}}));
  const auto out = IntegrateClusters(std::move(one), params, &ids);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].severity(), 5.0);
}

TEST(IntegrationTest, IdenticalClustersMerge) {
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  micros.push_back(MakeMicro(&ids, {{1, 5.0}, {2, 5.0}}, {{7, 10.0}}));
  micros.push_back(MakeMicro(&ids, {{1, 3.0}, {2, 3.0}}, {{7, 6.0}}));
  IntegrationStats stats;
  const auto out =
      IntegrateClusters(std::move(micros), IntegrationParams{}, &ids, &stats);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_DOUBLE_EQ(out[0].severity(), 16.0);
  EXPECT_EQ(out[0].num_micros(), 2);
  EXPECT_EQ(stats.merges, 1u);
}

TEST(IntegrationTest, DissimilarClustersStayApart) {
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  micros.push_back(MakeMicro(&ids, {{1, 5.0}}, {{7, 5.0}}));
  micros.push_back(MakeMicro(&ids, {{2, 5.0}}, {{9, 5.0}}));
  const auto out =
      IntegrateClusters(std::move(micros), IntegrationParams{}, &ids);
  EXPECT_EQ(out.size(), 2u);
}

TEST(IntegrationTest, MorningAndEveningJamsDoNotMerge) {
  // The paper's CA/CB example: same sensors, disjoint times, δsim = 0.5.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  micros.push_back(
      MakeMicro(&ids, {{1, 182.0}, {2, 97.0}}, {{32, 200.0}, {33, 79.0}}));
  micros.push_back(
      MakeMicro(&ids, {{1, 120.0}, {2, 51.0}}, {{70, 100.0}, {71, 71.0}}));
  const auto out =
      IntegrateClusters(std::move(micros), IntegrationParams{}, &ids);
  EXPECT_EQ(out.size(), 2u);
}

TEST(IntegrationTest, TransitiveAbsorption) {
  // A~B and (A+B)~C even though A!~C: the fixpoint loop must catch the
  // second merge after the first.  At δsim = 0.5, A and C share no sensor,
  // so C becomes a candidate of A only through B's sensor 3, once A has
  // absorbed B.  Either way exactly two pairs are evaluated.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  micros.push_back(MakeMicro(&ids, {{1, 10.0}, {2, 10.0}}, {{5, 20.0}}));
  micros.push_back(MakeMicro(&ids, {{2, 10.0}, {3, 10.0}}, {{5, 20.0}}));
  micros.push_back(MakeMicro(&ids, {{3, 10.0}, {4, 10.0}}, {{5, 20.0}}));
  for (const double delta_sim : {0.45, 0.5}) {
    IntegrationParams params;
    params.delta_sim = delta_sim;
    IntegrationStats stats;
    const auto out = IntegrateClusters(micros, params, &ids, &stats);
    ASSERT_EQ(out.size(), 1u) << "δsim=" << delta_sim;
    EXPECT_EQ(out[0].num_micros(), 3);
    EXPECT_DOUBLE_EQ(out[0].severity(), 60.0);
    EXPECT_EQ(stats.similarity_checks, 2u);
  }
}

// ---- candidate structure at δsim >= 0.5 (sensor postings) ----

std::set<ClusterId> MicroIdSet(const AtypicalCluster& c) {
  return {c.micro_ids.begin(), c.micro_ids.end()};
}

TEST(IntegrationTest, FirstScanStartsPastTheSlot) {
  // Every pair shares sensor 1 but no window, so Sim <= 0.5 and nothing
  // merges at δsim = 0.5: each slot's only scan visits the slots after it,
  // and every pair is evaluated exactly once.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  for (uint32_t k = 0; k < 40; ++k) {
    micros.push_back(MakeMicro(&ids, {{1, 1.0}, {k + 2, 9.0}}, {{k, 10.0}}));
  }
  IntegrationParams params;
  params.delta_sim = 0.5;
  IntegrationStats stats;
  const auto out = IntegrateClusters(micros, params, &ids, &stats);
  EXPECT_EQ(out.size(), 40u);
  EXPECT_EQ(stats.similarity_checks, 40u * 39u / 2);
}

TEST(IntegrationTest, OwnerChainResolvesToTheLiveAbsorber) {
  // Slot 0 absorbs 1; slot 2 absorbs 3, then 0; slot 4 absorbs 5, then 2.
  // When slot 4's candidates are marked from slot 2's sensors, slot 1 must
  // resolve through 1 → 0 → 2 to the live slot, never to the dead slot 0:
  // a stale candidate would merge slot 0's cluster a second time.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  micros.push_back(MakeMicro(&ids, {{6, 2.0}}, {{10, 1.0}, {30, 1.0}}));
  micros.push_back(MakeMicro(&ids, {{6, 4.0}}, {{30, 4.0}}));
  micros.push_back(MakeMicro(&ids, {{4, 4.0}, {6, 4.0}}, {{20, 8.0}}));
  micros.push_back(
      MakeMicro(&ids, {{4, 6.0}, {5, 8.0}}, {{20, 10.0}, {30, 4.0}}));
  micros.push_back(MakeMicro(&ids, {{1, 6.0}, {4, 6.0}}, {{10, 12.0}}));
  micros.push_back(
      MakeMicro(&ids, {{1, 10.0}, {3, 8.0}}, {{10, 5.0}, {20, 13.0}}));
  IntegrationParams params;
  params.delta_sim = 0.5;
  ClusterIdGenerator merge_ids(100);
  IntegrationStats stats;
  const auto out = IntegrateClusters(micros, params, &merge_ids, &stats);
  ASSERT_EQ(out.size(), 1u);
  std::set<ClusterId> input_ids;
  for (const AtypicalCluster& m : micros) input_ids.insert(m.id);
  EXPECT_EQ(MicroIdSet(out[0]), input_ids);
  EXPECT_EQ(out[0].num_micros(), 6);
  EXPECT_EQ(stats.merges, 5u);
  // Merge ids run 100 (0+1), 101 (2+3), 102 (101+100), 103 (4+5) and
  // 104 (103+102).
  EXPECT_EQ(out[0].id, 104u);
  EXPECT_EQ(out[0].left_child, 103u);
  EXPECT_EQ(out[0].right_child, 102u);
}

TEST(IntegrationTest, SensorKeysFarFromZeroGiveTheSamePartition) {
  // Postings are sized by the inputs' key span, not by the largest key:
  // shifting every sensor id by 1,000,000 changes nothing in the output.
  auto shifted = [](std::vector<AtypicalCluster> micros, uint32_t offset) {
    for (AtypicalCluster& c : micros) {
      FeatureVector spatial;
      for (const auto& e : c.spatial.entries()) {
        spatial.Add(e.key + offset, e.severity);
      }
      c.spatial = std::move(spatial);
    }
    return micros;
  };
  Rng rng(31);
  ClusterIdGenerator ids(1);
  const std::vector<AtypicalCluster> micros = RandomMicros(80, 12, rng, &ids);
  for (const double delta_sim : {0.5, 0.7}) {
    IntegrationParams params;
    params.delta_sim = delta_sim;
    ClusterIdGenerator near_ids(1000);
    ClusterIdGenerator far_ids(1000);
    const auto near = IntegrateClusters(micros, params, &near_ids);
    const auto far =
        IntegrateClusters(shifted(micros, 1000000), params, &far_ids);
    ASSERT_EQ(near.size(), far.size());
    ASSERT_LT(near.size(), micros.size()) << "the population must merge";
    for (size_t i = 0; i < near.size(); ++i) {
      EXPECT_EQ(near[i].id, far[i].id);
      EXPECT_EQ(near[i].micro_ids, far[i].micro_ids);
      EXPECT_EQ(near[i].spatial.entries().front().key + 1000000,
                far[i].spatial.entries().front().key);
    }
  }
}

// ---- stage-0 rule boundary ----

constexpr BalanceFunction kAllBalanceFunctions[] = {
    BalanceFunction::kMax, BalanceFunction::kMin,
    BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
    BalanceFunction::kHarmonicMean};

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
    IntegrationStats stats;
    ClusterIdGenerator ids(100000);
    const auto out = IntegrateClusters(micros, params, &ids, &stats);
    EXPECT_EQ(out.size(), 2u);
    // The slots share no sensor, so neither is ever the other's candidate:
    // no pair is evaluated.
    EXPECT_EQ(stats.similarity_checks, 0u);
  }
}

TEST(StageZeroRuleTest, BelowHalfTheRuleIsOffAndTimeAloneMerges) {
  const std::vector<AtypicalCluster> micros = SameWindowsNoSharedSensor();
  for (const BalanceFunction g : kAllBalanceFunctions) {
    SCOPED_TRACE(std::string("g=") + BalanceFunctionName(g));
    IntegrationParams params;
    params.g = g;
    params.delta_sim = 0.4;
    IntegrationStats stats;
    ClusterIdGenerator ids(100000);
    const auto out = IntegrateClusters(micros, params, &ids, &stats);
    ASSERT_EQ(out.size(), 1u);
    EXPECT_EQ(stats.merges, 1u);
    EXPECT_EQ(stats.similarity_checks, 1u);
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
  ClusterIdGenerator ids(100000);
  EXPECT_EQ(IntegrateClusters(micros, params, &ids).size(), 2u);
}

TEST(IntegrationTest, FixpointPropertyNoSimilarPairRemains) {
  // After integration, no output pair may exceed δsim (Algorithm 3 line 7).
  Rng rng(5);
  ClusterIdGenerator ids(1);
  for (const double delta_sim : {0.2, 0.5, 0.8}) {
    for (uint64_t seed = 0; seed < 4; ++seed) {
      Rng local(seed * 100 + 9);
      std::vector<AtypicalCluster> micros = RandomMicros(60, 12, local, &ids);
      IntegrationParams params;
      params.delta_sim = delta_sim;
      const auto out = IntegrateClusters(std::move(micros), params, &ids);
      for (size_t i = 0; i < out.size(); ++i) {
        for (size_t j = i + 1; j < out.size(); ++j) {
          ASSERT_LE(Similarity(out[i], out[j], params.g), delta_sim)
              << "δsim=" << delta_sim << " seed=" << seed;
        }
      }
    }
  }
}

TEST(IntegrationTest, MicroIdsArePreservedAsPartition) {
  Rng rng(7);
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RandomMicros(80, 10, rng, &ids);
  std::set<ClusterId> input_ids;
  double input_severity = 0.0;
  for (const auto& m : micros) {
    input_ids.insert(m.id);
    input_severity += m.severity();
  }
  const auto out =
      IntegrateClusters(std::move(micros), IntegrationParams{}, &ids);
  std::set<ClusterId> output_micro_ids;
  double output_severity = 0.0;
  for (const auto& c : out) {
    output_severity += c.severity();
    for (ClusterId id : c.micro_ids) {
      EXPECT_TRUE(output_micro_ids.insert(id).second)
          << "micro " << id << " appears twice";
    }
  }
  EXPECT_EQ(output_micro_ids, input_ids);
  EXPECT_NEAR(output_severity, input_severity, 1e-6);
}

TEST(IntegrationTest, StatsAreConsistent) {
  Rng rng(13);
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RandomMicros(50, 8, rng, &ids);
  IntegrationStats stats;
  const auto out =
      IntegrateClusters(std::move(micros), IntegrationParams{}, &ids, &stats);
  EXPECT_EQ(stats.input_clusters, 50u);
  EXPECT_EQ(stats.output_clusters, out.size());
  EXPECT_EQ(stats.input_clusters - stats.merges, stats.output_clusters);
  EXPECT_GE(stats.seconds, 0.0);
  // Retired scan fields: one exact scan per evaluated pair, no pruning.
  EXPECT_EQ(stats.exact_scans, stats.similarity_checks);
  EXPECT_EQ(stats.pruned_scans, 0u);
}

TEST(IntegrationTest, ThresholdIsStrict) {
  // Similarity exactly equal to δsim must NOT merge ("larger than").
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros;
  // Identical temporal features (TF sim 1.0), disjoint sensors (SF sim 0)
  // -> overall 0.5 under any balance function.
  micros.push_back(MakeMicro(&ids, {{1, 10.0}}, {{5, 10.0}}));
  micros.push_back(MakeMicro(&ids, {{2, 10.0}}, {{5, 10.0}}));
  IntegrationParams params;
  params.delta_sim = 0.5;
  EXPECT_EQ(IntegrateClusters(micros, params, &ids).size(), 2u);
  params.delta_sim = 0.49;
  EXPECT_EQ(IntegrateClusters(micros, params, &ids).size(), 1u);
}

TEST(IntegrationTest, RoundBudgetReturnsValidPartialPartition) {
  // A chain of transitively mergeable clusters: unbounded integration folds
  // them all; a one-round budget stops after the first merge, reports
  // !converged, and still returns a valid partition of the inputs.
  auto make_chain = [](ClusterIdGenerator* ids) {
    std::vector<AtypicalCluster> micros;
    for (uint32_t k = 1; k <= 6; ++k) {
      micros.push_back(MakeMicro(ids, {{k, 10.0}, {k + 1, 10.0}}, {{5, 20.0}}));
    }
    return micros;
  };
  IntegrationParams params;
  params.delta_sim = 0.45;

  ClusterIdGenerator full_ids(1);
  IntegrationStats full_stats;
  const auto full = IntegrateClusters(make_chain(&full_ids), params, &full_ids,
                                      &full_stats);
  ASSERT_EQ(full.size(), 1u);
  EXPECT_TRUE(full_stats.converged);
  EXPECT_GE(full_stats.fixpoint_rounds, 6u);

  params.max_fixpoint_rounds = 1;
  ClusterIdGenerator part_ids(1);
  IntegrationStats part_stats;
  const auto partial = IntegrateClusters(make_chain(&part_ids), params,
                                         &part_ids, &part_stats);
  EXPECT_FALSE(part_stats.converged);
  EXPECT_EQ(part_stats.fixpoint_rounds, 1u);
  EXPECT_GT(partial.size(), full.size());
  EXPECT_LE(partial.size(), 6u);
  // Still a partition: every input micro id appears exactly once, severity
  // conserved.
  std::set<ClusterId> seen;
  double severity = 0.0;
  for (const auto& c : partial) {
    severity += c.severity();
    for (ClusterId id : c.micro_ids) {
      EXPECT_TRUE(seen.insert(id).second) << "micro " << id << " duplicated";
    }
  }
  EXPECT_EQ(seen.size(), 6u);
  EXPECT_NEAR(severity, 6 * 20.0, 1e-9);
}

TEST(IntegrationTest, DeadlineBudgetReportsTruncation) {
  // An already-elapsed deadline trips before the first round; the output is
  // the untouched input set.
  Rng rng(23);
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RandomMicros(20, 6, rng, &ids);
  IntegrationParams params;
  params.deadline_seconds = 1e-12;
  IntegrationStats stats;
  const auto out = IntegrateClusters(micros, params, &ids, &stats);
  EXPECT_FALSE(stats.converged);
  EXPECT_EQ(out.size(), micros.size());
  EXPECT_EQ(stats.merges, 0u);
}

TEST(IntegrationTest, DefaultBudgetsAreUnlimited) {
  Rng rng(29);
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RandomMicros(40, 8, rng, &ids);
  IntegrationStats stats;
  IntegrateClusters(std::move(micros), IntegrationParams{}, &ids, &stats);
  EXPECT_TRUE(stats.converged);
  EXPECT_GT(stats.fixpoint_rounds, 0u);
}

TEST(IntegrationDeathTest, RejectsNonPositiveDeltaSim) {
  ClusterIdGenerator ids(1);
  IntegrationParams params;
  params.delta_sim = 0.0;
  EXPECT_DEATH(IntegrateClusters({}, params, &ids), "Check failed");
}

}  // namespace
}  // namespace atypical
