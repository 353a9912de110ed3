// IncrementalIntegrator::Finalize() must be a bit-identical drop-in for the
// batch Algorithm 3 driver — same partition, same features, same cluster
// ids, same IntegrationStats — no matter how the micro-clusters arrived.
// These tests pin that contract, plus the budget, scratch id and Reset()
// semantics.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/incremental_integration.h"
#include "core/integration.h"
#include "core/similarity.h"
#include "core/streaming.h"
#include "gen/workload.h"
#include "util/random.h"

namespace atypical {
namespace {

std::vector<AtypicalCluster> RandomMicros(int count, uint32_t key_space,
                                          uint64_t seed) {
  Rng rng(seed);
  std::vector<AtypicalCluster> out;
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c;
    // Placeholder micro identity (a builder would hand out scratch ids);
    // both Renumber() and Finalize() overwrite it.
    c.id = static_cast<ClusterId>(i + 1);
    c.micro_ids = {c.id};
    c.first_day = static_cast<int>(rng.UniformInt(uint64_t{30}));
    c.last_day = c.first_day;
    c.num_records = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{8}));
    for (int j = 0; j < n; ++j) {
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

// Assigns ids in vector order from `ids` — exactly what batch micro-cluster
// construction does, and what Finalize() replays in first-seq order.
void Renumber(std::vector<AtypicalCluster>* micros, ClusterIdGenerator* ids) {
  for (AtypicalCluster& m : *micros) {
    m.id = ids->Next();
    m.micro_ids = {m.id};
  }
}

void ExpectIdentical(const std::vector<AtypicalCluster>& batch,
                     const std::vector<AtypicalCluster>& streamed) {
  ASSERT_EQ(batch.size(), streamed.size());
  for (size_t i = 0; i < batch.size(); ++i) {
    const AtypicalCluster& b = batch[i];
    const AtypicalCluster& s = streamed[i];
    EXPECT_EQ(b.id, s.id) << "cluster " << i;
    EXPECT_EQ(b.spatial, s.spatial) << "cluster " << i;
    EXPECT_EQ(b.temporal, s.temporal) << "cluster " << i;
    EXPECT_EQ(b.key_mode, s.key_mode) << "cluster " << i;
    EXPECT_EQ(b.micro_ids, s.micro_ids) << "cluster " << i;
    EXPECT_EQ(b.left_child, s.left_child) << "cluster " << i;
    EXPECT_EQ(b.right_child, s.right_child) << "cluster " << i;
    EXPECT_EQ(b.first_day, s.first_day) << "cluster " << i;
    EXPECT_EQ(b.last_day, s.last_day) << "cluster " << i;
    EXPECT_EQ(b.num_records, s.num_records) << "cluster " << i;
  }
}

void ExpectSameStats(const IntegrationStats& batch,
                     const IntegrationStats& streamed) {
  EXPECT_EQ(batch.input_clusters, streamed.input_clusters);
  EXPECT_EQ(batch.output_clusters, streamed.output_clusters);
  EXPECT_EQ(batch.merges, streamed.merges);
  EXPECT_EQ(batch.similarity_checks, streamed.similarity_checks);
  EXPECT_EQ(batch.fixpoint_rounds, streamed.fixpoint_rounds);
  EXPECT_EQ(batch.converged, streamed.converged);
}

// Feeds `micros` in order (seq = feed position) and finalizes.
std::vector<AtypicalCluster> StreamAndFinalize(
    const std::vector<AtypicalCluster>& micros, const IntegrationParams& params,
    ClusterIdGenerator* ids, IntegrationStats* stats = nullptr,
    std::vector<AtypicalCluster>* canonical_micros = nullptr) {
  IncrementalIntegrator integrator(params, ids);
  for (size_t i = 0; i < micros.size(); ++i) {
    integrator.Accept(micros[i], i);
  }
  EXPECT_EQ(integrator.num_micros(), micros.size());
  return integrator.Finalize(stats, canonical_micros);
}

struct EquivalenceCase {
  BalanceFunction g;
  double delta_sim;
  uint64_t seed;
};

class IncrementalEquivalenceTest
    : public ::testing::TestWithParam<EquivalenceCase> {};

TEST_P(IncrementalEquivalenceTest, FinalizeBitIdenticalToBatch) {
  const EquivalenceCase c = GetParam();
  std::vector<AtypicalCluster> micros = RandomMicros(120, 16, c.seed);

  IntegrationParams params;
  params.g = c.g;
  params.delta_sim = c.delta_sim;

  // Batch: number the micros, then integrate with the same generator — the
  // id sequence a real pipeline (RetrieveMicroClusters + IntegrateClusters)
  // produces.
  std::vector<AtypicalCluster> batch_micros = micros;
  ClusterIdGenerator batch_ids(1);
  Renumber(&batch_micros, &batch_ids);
  IntegrationStats batch_stats;
  const auto batch =
      IntegrateClusters(batch_micros, params, &batch_ids, &batch_stats);

  ClusterIdGenerator inc_ids(1);
  IntegrationStats inc_stats;
  std::vector<AtypicalCluster> canonical;
  const auto streamed =
      StreamAndFinalize(micros, params, &inc_ids, &inc_stats, &canonical);

  ExpectIdentical(batch, streamed);
  ExpectIdentical(batch_micros, canonical);
  ExpectSameStats(batch_stats, inc_stats);
}

std::vector<EquivalenceCase> MakeCases() {
  std::vector<EquivalenceCase> cases;
  uint64_t seed = 17;
  for (const BalanceFunction g :
       {BalanceFunction::kMax, BalanceFunction::kArithmeticMean,
        BalanceFunction::kHarmonicMean}) {
    for (const double delta_sim : {0.25, 0.5}) {
      for (int rep = 0; rep < 2; ++rep) {  // two seeds per setting
        cases.push_back(EquivalenceCase{g, delta_sim, seed++});
      }
    }
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Sweep, IncrementalEquivalenceTest,
                         ::testing::ValuesIn(MakeCases()));

TEST(IncrementalIntegrationTest, PermutedArrivalsStayEquivalent) {
  std::vector<AtypicalCluster> micros = RandomMicros(90, 12, 4242);
  IntegrationParams params;

  Rng rng(314159);
  for (int round = 0; round < 4; ++round) {
    for (size_t i = micros.size(); i > 1; --i) {
      std::swap(micros[i - 1], micros[rng.UniformInt(uint64_t{i})]);
    }
    std::vector<AtypicalCluster> batch_micros = micros;
    ClusterIdGenerator batch_ids(1);
    Renumber(&batch_micros, &batch_ids);
    const auto batch = IntegrateClusters(batch_micros, params, &batch_ids);

    ClusterIdGenerator inc_ids(1);
    ExpectIdentical(batch, StreamAndFinalize(micros, params, &inc_ids));
  }
}

TEST(IncrementalIntegrationTest, BudgetTrippedPartialMatchesBatch) {
  // Budgets apply to the one Finalize() run exactly as to the batch run;
  // a 1-round budget trips on the first merging slot.
  const std::vector<AtypicalCluster> micros = RandomMicros(120, 8, 2024);
  for (const uint64_t rounds : {uint64_t{3}, uint64_t{1}}) {
    SCOPED_TRACE(rounds);
    IntegrationParams params;
    params.delta_sim = 0.25;  // merge-heavy so the budget actually bites
    params.max_fixpoint_rounds = rounds;

    std::vector<AtypicalCluster> batch_micros = micros;
    ClusterIdGenerator batch_ids(1);
    Renumber(&batch_micros, &batch_ids);
    IntegrationStats batch_stats;
    const auto batch =
        IntegrateClusters(batch_micros, params, &batch_ids, &batch_stats);
    ASSERT_FALSE(batch_stats.converged);

    ClusterIdGenerator inc_ids(1);
    IntegrationStats inc_stats;
    const auto streamed = StreamAndFinalize(micros, params, &inc_ids,
                                            &inc_stats);
    ExpectIdentical(batch, streamed);
    ExpectSameStats(batch_stats, inc_stats);
  }
}

TEST(IncrementalIntegrationTest, BuilderIdsNeverTouchTheRealGenerator) {
  // A real builder on scratch_ids() hands out provisional ids; the real
  // sequence starts only at Finalize, so the first canonical micro is 1.
  const auto workload = MakeWorkload(WorkloadScale::kTiny, 61);
  const std::vector<AtypicalRecord> records =
      workload->generator->GenerateMonthAtypical(0);
  ClusterIdGenerator ids(1);
  IncrementalIntegrator integrator(IntegrationParams{}, &ids);
  StreamingEventBuilder builder(
      workload->sensors.get(), workload->gen_config.time_grid,
      analytics::DefaultForestParams().retrieval, integrator.scratch_ids(),
      [&integrator](AtypicalCluster micro, uint64_t first_record_seq) {
        EXPECT_GE(micro.id, ClusterId{1} << 40) << "builder ids are scratch";
        integrator.Accept(std::move(micro), first_record_seq);
      });
  for (const AtypicalRecord& r : records) builder.Add(r);
  builder.Flush();
  const size_t kept = integrator.num_micros();
  ASSERT_GT(kept, 0u);

  std::vector<AtypicalCluster> canonical;
  integrator.Finalize(nullptr, &canonical);
  ASSERT_EQ(canonical.size(), kept);
  EXPECT_EQ(canonical.front().id, 1u);
  EXPECT_EQ(canonical.back().id, canonical.size());
}

TEST(IncrementalIntegrationTest, ResetServesASecondCycle) {
  const auto day1 = RandomMicros(50, 8, 21);
  const auto day2 = RandomMicros(70, 8, 22);
  IntegrationParams params;

  // Batch reference: one generator spanning both days, like a forest's.
  ClusterIdGenerator batch_ids(1);
  std::vector<AtypicalCluster> b1 = day1;
  Renumber(&b1, &batch_ids);
  const auto batch1 = IntegrateClusters(b1, params, &batch_ids);
  std::vector<AtypicalCluster> b2 = day2;
  Renumber(&b2, &batch_ids);
  const auto batch2 = IntegrateClusters(b2, params, &batch_ids);

  ClusterIdGenerator inc_ids(1);
  IncrementalIntegrator integrator(params, &inc_ids);
  for (size_t i = 0; i < day1.size(); ++i) integrator.Accept(day1[i], i);
  ExpectIdentical(batch1, integrator.Finalize());
  integrator.Reset();
  EXPECT_EQ(integrator.num_micros(), 0u);
  for (size_t i = 0; i < day2.size(); ++i) integrator.Accept(day2[i], i);
  ExpectIdentical(batch2, integrator.Finalize());
}

TEST(IncrementalIntegrationTest, EmptyFinalize) {
  IntegrationParams params;
  ClusterIdGenerator ids(1);
  IncrementalIntegrator integrator(params, &ids);
  IntegrationStats stats;
  EXPECT_TRUE(integrator.Finalize(&stats).empty());
  EXPECT_TRUE(stats.converged);
  EXPECT_EQ(stats.merges, 0u);
}

TEST(IncrementalIntegrationDeathTest, AcceptAfterFinalizeDies) {
  IntegrationParams params;
  ClusterIdGenerator ids(1);
  IncrementalIntegrator integrator(params, &ids);
  const auto micros = RandomMicros(1, 4, 1);
  integrator.Accept(micros[0], 0);
  integrator.Finalize();
  EXPECT_DEATH(integrator.Accept(micros[0], 1), "Accept after Finalize");
}

}  // namespace
}  // namespace atypical
