// Instrumentation transparency: pipeline results are a pure function of
// their inputs, never of the metrics registry's state.  Runs the same
// forest-build + query twice while perturbing the registry in between and
// demands bit-identical answers, and checks the counters the run should have
// left behind.
#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/forest.h"
#include "core/query.h"
#include "cube/hierarchy.h"
#include "obs/snapshot.h"
#include "obs/stats.h"

namespace atypical {
namespace {

struct RunOutcome {
  size_t num_clusters = 0;
  double mass = 0.0;
  double threshold = 0.0;
  size_t input_micro_clusters = 0;
  size_t forest_micros = 0;
  size_t forest_days = 0;
  size_t week_macros = 0;
};

bool operator==(const RunOutcome& a, const RunOutcome& b) {
  return a.num_clusters == b.num_clusters && a.mass == b.mass &&
         a.threshold == b.threshold &&
         a.input_micro_clusters == b.input_micro_clusters &&
         a.forest_micros == b.forest_micros &&
         a.forest_days == b.forest_days && a.week_macros == b.week_macros;
}

// Builds one tiny month, materializes its week level, answers the
// whole-area query from the day leaves.  Deterministic per seed.
RunOutcome RunPipeline(uint64_t seed) {
  const auto ctx = analytics::BuildContext(
      WorkloadScale::kTiny, 1, analytics::DefaultForestParams(), seed);
  const auto weeks =
      MaterializeLevel(*ctx->forest, cube::WeekOfDay, ctx->forest->ids());
  const QueryEngine engine =
      ctx->MakeEngine(analytics::DefaultEngineOptions());
  const QueryResult result =
      engine.Run(ctx->WholeAreaQuery(7), QueryStrategy::kAll);

  RunOutcome out;
  out.num_clusters = result.clusters.size();
  for (const AtypicalCluster& c : result.clusters) out.mass += c.severity();
  out.threshold = result.threshold;
  out.input_micro_clusters = result.cost.input_micro_clusters;
  out.forest_micros = ctx->forest->num_micro_clusters();
  out.forest_days = ctx->forest->Days().size();
  for (const auto& [_, macros] : weeks) out.week_macros += macros.size();
  return out;
}

TEST(ObsTransparencyTest, ResultsUnchangedByRegistryState) {
  const RunOutcome first = RunPipeline(23);
  ASSERT_GT(first.num_clusters, 0u);

  // Perturb the registry every way a bystander could: junk writes into the
  // very metrics the pipeline uses, then a full reset.
  obs::Registry()->GetCounter("integration.runs")->Add(999);
  obs::Registry()->GetCounter("forest.days_added")->Add(999);
  obs::Registry()->GetHistogram("query.seconds")->Record(123.0);
  const RunOutcome second = RunPipeline(23);
  EXPECT_TRUE(first == second);

  obs::Registry()->Reset();
  const RunOutcome third = RunPipeline(23);
  EXPECT_TRUE(first == third);
}

TEST(ObsTransparencyTest, PipelineLeavesExpectedCounters) {
  obs::Registry()->Reset();
  const RunOutcome outcome = RunPipeline(23);
  const obs::StatsSnapshot snapshot = obs::Registry()->Snapshot();

  EXPECT_EQ(snapshot.CounterValue("forest.days_added"), outcome.forest_days);
  EXPECT_EQ(snapshot.CounterValue("query.runs"), 1u);
  EXPECT_EQ(snapshot.CounterValue("query.clusters_out"), outcome.num_clusters);
  EXPECT_GT(snapshot.CounterValue("retrieval.records_in"), 0u);
  EXPECT_GE(snapshot.CounterValue("integration.runs"), 2u);  // week, query

  bool saw_query_seconds = false;
  for (const auto& h : snapshot.histograms) {
    if (h.name == "query.seconds") {
      saw_query_seconds = true;
      EXPECT_EQ(h.count, 1u);
    }
  }
  EXPECT_TRUE(saw_query_seconds);
}

}  // namespace
}  // namespace atypical
