// The shared experiment context (analytics/report.h) used by every bench.
#include "analytics/report.h"

#include <gtest/gtest.h>

namespace atypical {
namespace analytics {
namespace {

TEST(DefaultParamsTest, MatchPaperDefaults) {
  const ForestParams forest = DefaultForestParams();
  EXPECT_DOUBLE_EQ(forest.retrieval.delta_d_miles, 1.5);
  EXPECT_EQ(forest.retrieval.delta_t_minutes, 15);
  EXPECT_TRUE(forest.retrieval.use_index);
  EXPECT_DOUBLE_EQ(forest.integration.delta_sim, 0.5);
  EXPECT_TRUE(forest.integration.g == BalanceFunction::kArithmeticMean);

  const SignificanceParams sig = DefaultSignificanceParams();
  EXPECT_DOUBLE_EQ(sig.delta_s, 0.05);
  EXPECT_TRUE(sig.unit == LengthUnit::kDays);

  const QueryEngineOptions options = DefaultEngineOptions();
  EXPECT_FALSE(options.post_check_significance);
  EXPECT_FALSE(options.use_materialized_levels);
}

TEST(BuildContextTest, BuildsAConsistentStack) {
  const auto ctx = BuildContext(WorkloadScale::kTiny, 2,
                                DefaultForestParams(), 103);
  ASSERT_EQ(ctx->monthly_atypical.size(), 2u);
  EXPECT_EQ(ctx->forest->Days().size(), 14u);
  EXPECT_EQ(ctx->days_per_month(), 7);

  // Cube total equals the records' total severity.
  double record_mass = 0.0;
  for (const auto& month : ctx->monthly_atypical) {
    for (const auto& r : month)
      record_mass += static_cast<double>(r.severity_minutes);
  }
  std::vector<RegionId> all;
  for (RegionId r = 0; r < static_cast<RegionId>(ctx->regions().num_regions());
       ++r) {
    all.push_back(r);
  }
  EXPECT_NEAR(ctx->measure.F(all, DayRange{0, 13}), record_mass, 1e-3);

  // Forest micro mass equals the records' total severity too.
  double micro_mass = 0.0;
  for (const auto& [id, severity] : ctx->forest->MicroSeverities({0, 13})) {
    micro_mass += severity;
  }
  EXPECT_NEAR(micro_mass, record_mass, 1e-3);
}

TEST(BuildContextTest, WholeAreaQueryCoversEverySensor) {
  const auto ctx = BuildContext(WorkloadScale::kTiny, 1,
                                DefaultForestParams(), 107);
  const AnalyticalQuery query = ctx->WholeAreaQuery(7);
  EXPECT_EQ(query.days.NumDays(), 7);
  EXPECT_EQ(ctx->network().SensorsInRect(query.area).size(),
            static_cast<size_t>(ctx->network().num_sensors()));
}

TEST(BuildContextTest, EngineIsFunctional) {
  const auto ctx = BuildContext(WorkloadScale::kTiny, 1,
                                DefaultForestParams(), 109);
  const QueryEngine engine = ctx->MakeEngine(DefaultEngineOptions());
  const QueryResult r =
      engine.Run(ctx->WholeAreaQuery(7), QueryStrategy::kAll);
  EXPECT_FALSE(r.clusters.empty());
}

TEST(BuildContextDeathTest, RejectsTooManyMonths) {
  EXPECT_DEATH(BuildContext(WorkloadScale::kTiny, 99), "Check failed");
}

}  // namespace
}  // namespace analytics
}  // namespace atypical
