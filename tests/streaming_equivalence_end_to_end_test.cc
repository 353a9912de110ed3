// End-to-end streamed≡batch equivalence: records → RobustStreamingEventBuilder
// → IncrementalIntegrator::Finalize() must be bit-identical — cluster ids
// included — to the batch pipeline (records → RetrieveMicroClusters →
// IntegrateClusters) over the same accepted records, including mangled
// feeds where the guard quarantines or reorders part of the input, and
// budget-tripped partial results.
#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/incremental_integration.h"
#include "core/ingest.h"
#include "core/integration.h"
#include "gen/workload.h"
#include "util/fault.h"

namespace atypical {
namespace {

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

class StreamingEquivalenceTest : public ::testing::Test {
 public:
  StreamingEquivalenceTest()
      : workload_(MakeWorkload(WorkloadScale::kTiny, 61)),
        grid_(workload_->gen_config.time_grid),
        retrieval_(analytics::DefaultForestParams().retrieval) {}

  struct StreamedRun {
    std::vector<AtypicalCluster> macros;
    std::vector<AtypicalCluster> micros;  // canonical, re-numbered
    std::vector<AtypicalRecord> accepted;  // released order (the tap)
    IntegrationStats stats;
    IngestStats ingest;
  };

  // Full online pipeline: guard → incremental integrator → Finalize.
  StreamedRun RunStreamed(const std::vector<AtypicalRecord>& feed,
                          const IntegrationParams& integration,
                          const IngestOptions& options) {
    StreamedRun run;
    ClusterIdGenerator ids(1);
    IncrementalIntegrator integrator(integration, &ids);
    RobustStreamingEventBuilder guard(workload_->sensors.get(), grid_,
                                      retrieval_, integrator.scratch_ids(),
                                      integrator.AsEmitFn(), options);
    guard.set_accept_tap(
        [&](const AtypicalRecord& r) { run.accepted.push_back(r); });
    for (const AtypicalRecord& r : feed) guard.Add(r);
    guard.Flush();
    run.ingest = guard.stats();
    run.macros = integrator.Finalize(&run.stats, &run.micros);
    return run;
  }

  // Batch pipeline over the accepted records, one generator end to end.
  std::vector<AtypicalCluster> RunBatch(
      const std::vector<AtypicalRecord>& accepted,
      const IntegrationParams& integration,
      std::vector<AtypicalCluster>* out_micros = nullptr,
      IntegrationStats* out_stats = nullptr) {
    ClusterIdGenerator ids(1);
    std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
        accepted, *workload_->sensors, grid_, retrieval_, &ids);
    if (out_micros != nullptr) *out_micros = micros;
    return IntegrateClusters(std::move(micros), integration, &ids, out_stats);
  }

  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
  RetrievalParams retrieval_;
};

TEST_F(StreamingEquivalenceTest, CleanFeedMatchesBatchAcrossParams) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  for (const BalanceFunction g :
       {BalanceFunction::kMax, BalanceFunction::kArithmeticMean,
        BalanceFunction::kHarmonicMean}) {
    for (const double delta_sim : {0.25, 0.5}) {
      IntegrationParams integration;
      integration.g = g;
      integration.delta_sim = delta_sim;
      const StreamedRun run = RunStreamed(records, integration, {});
      ASSERT_EQ(run.accepted.size(), records.size());
      std::vector<AtypicalCluster> batch_micros;
      const auto batch = RunBatch(run.accepted, integration, &batch_micros);
      ExpectIdentical(batch_micros, run.micros);
      ExpectIdentical(batch, run.macros);
    }
  }
}

TEST_F(StreamingEquivalenceTest, PermutedFeedMatchesBatchOnReleasedOrder) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  IntegrationParams integration;
  for (const uint64_t seed : {3ull, 17ull, 99ull}) {
    FaultPlan plan(seed);
    IngestOptions options;
    options.lateness_horizon_windows = 6;
    const std::vector<AtypicalRecord> permuted = plan.DelayRecords(records, 6);
    const StreamedRun run = RunStreamed(permuted, integration, options);
    ASSERT_GT(run.ingest.reordered, 0u) << "seed " << seed;
    ASSERT_EQ(run.accepted.size(), records.size());
    ExpectIdentical(RunBatch(run.accepted, integration), run.macros);
  }
}

TEST_F(StreamingEquivalenceTest, MangledFeedMatchesBatchOnSalvagedRecords) {
  // Quarantined/salvaged inputs: the guard drops malformed and duplicated
  // records; the equivalence contract is over what survives (the accept
  // tap), exactly like degradation_end_to_end's salvage story.
  const std::vector<AtypicalRecord> clean =
      workload_->generator->GenerateMonthAtypical(1);
  FaultPlan plan(5);
  std::vector<AtypicalRecord> feed = plan.DelayRecords(clean, 4);
  feed = plan.DuplicateRecords(std::move(feed), 0.05);
  feed = plan.CorruptRecords(std::move(feed), 0.08, grid_);

  IngestOptions options;
  options.lateness_horizon_windows = 4;
  IntegrationParams integration;
  const StreamedRun run = RunStreamed(feed, integration, options);
  ASSERT_GT(run.ingest.quarantined(), 0u);
  ASSERT_TRUE(run.ingest.Reconciles());
  ASSERT_EQ(run.accepted.size(), run.ingest.accepted);
  ExpectIdentical(RunBatch(run.accepted, integration), run.macros);
}

TEST_F(StreamingEquivalenceTest, BudgetTrippedPartialMatchesBatch) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  IntegrationParams integration;
  integration.delta_sim = 0.25;
  integration.max_fixpoint_rounds = 2;
  const StreamedRun run = RunStreamed(records, integration, {});
  IntegrationStats batch_stats;
  const auto batch =
      RunBatch(run.accepted, integration, nullptr, &batch_stats);
  EXPECT_FALSE(batch_stats.converged) << "budget did not trip; tighten it";
  EXPECT_EQ(batch_stats.converged, run.stats.converged);
  ExpectIdentical(batch, run.macros);
}

}  // namespace
}  // namespace atypical
