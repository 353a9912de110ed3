#include "analytics/drilldown.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "analytics/ground_truth.h"
#include "analytics/report.h"
#include "util/logging.h"
#include "util/string_util.h"

namespace atypical {
namespace analytics {
namespace {

class DrilldownTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = BuildContext(WorkloadScale::kTiny, 2, DefaultForestParams(), 91)
               .release();
    const QueryResult all = ctx_->MakeEngine(DefaultEngineOptions())
                                .Run(ctx_->WholeAreaQuery(14),
                                     QueryStrategy::kAll);
    result_ = new QueryResult(all);
    // Pick the biggest merged cluster to drill into.
    const AtypicalCluster* best = nullptr;
    for (const AtypicalCluster& c : result_->clusters) {
      if (c.num_micros() > 1 &&
          (best == nullptr || c.severity() > best->severity())) {
        best = &c;
      }
    }
    CHECK(best != nullptr);
    big_ = best;
  }
  static void TearDownTestSuite() {
    delete result_;
    delete ctx_;
  }

  static ExperimentContext* ctx_;
  static QueryResult* result_;
  static const AtypicalCluster* big_;
};

ExperimentContext* DrilldownTest::ctx_ = nullptr;
QueryResult* DrilldownTest::result_ = nullptr;
const AtypicalCluster* DrilldownTest::big_ = nullptr;

TEST_F(DrilldownTest, LeavesRecoverTheWholeMacro) {
  const std::vector<DrilldownLeaf> leaves = ResolveLeaves(*big_, *ctx_->forest);
  ASSERT_EQ(leaves.size(), big_->micro_ids.size());
  double mass = 0.0;
  double share = 0.0;
  for (const DrilldownLeaf& leaf : leaves) {
    ASSERT_NE(leaf.micro, nullptr);
    mass += leaf.severity;
    share += leaf.share;
    EXPECT_GE(leaf.day, big_->first_day);
    EXPECT_LE(leaf.day, big_->last_day);
  }
  EXPECT_NEAR(mass, big_->severity(), 1e-6);
  EXPECT_NEAR(share, 1.0, 1e-9);
}

TEST_F(DrilldownTest, LeavesOrderedByDay) {
  const auto leaves = ResolveLeaves(*big_, *ctx_->forest);
  for (size_t i = 1; i < leaves.size(); ++i) {
    EXPECT_LE(leaves[i - 1].day, leaves[i].day);
  }
}

TEST_F(DrilldownTest, DailyProfileSumsToSeverity) {
  const std::vector<double> profile =
      DailySeverityProfile(*big_, *ctx_->forest);
  EXPECT_EQ(profile.size(),
            static_cast<size_t>(big_->last_day - big_->first_day + 1));
  double total = 0.0;
  for (double v : profile) total += v;
  EXPECT_NEAR(total, big_->severity(), 1e-6);
  // The span boundaries carry actual mass (first/last day are tight).
  EXPECT_GT(profile.front(), 0.0);
  EXPECT_GT(profile.back(), 0.0);
}

TEST_F(DrilldownTest, ReportAnswersExampleOneQuestions) {
  const ClusterReport report =
      BuildClusterReport(*big_, ctx_->network(), ctx_->time_grid());
  EXPECT_EQ(report.id, big_->id);
  EXPECT_DOUBLE_EQ(report.severity, big_->severity());
  ASSERT_FALSE(report.top_sensors.empty());
  // Top sensor is the SF maximum.
  EXPECT_EQ(report.top_sensors[0].key, big_->spatial.Top().key);
  // Onset is at or before the peak.
  EXPECT_LE(report.onset_minute_of_day, report.peak_minute_of_day);
  EXPECT_GT(report.peak_share, 0.0);
  EXPECT_LE(report.peak_share, 1.0);
  EXPECT_FALSE(report.summary.empty());
}

TEST_F(DrilldownTest, ReportTopSensorsRespectLimit) {
  const ClusterReport report =
      BuildClusterReport(*big_, ctx_->network(), ctx_->time_grid());
  EXPECT_EQ(report.top_sensors.size(),
            std::min<size_t>(3, static_cast<size_t>(big_->num_sensors())));
}

TEST_F(DrilldownTest, RenderTopClustersTable) {
  const Table table = RenderTopClusters(result_->clusters, ctx_->network(),
                                        ctx_->time_grid(), 5);
  EXPECT_LE(table.num_rows(), 5u);
  EXPECT_GT(table.num_rows(), 0u);
  // Severity column is sorted descending.
  double prev = 1e18;
  for (const auto& row : table.rows()) {
    const double severity = ParseDouble(row[1], -1.0);
    EXPECT_LE(severity, prev);
    prev = severity;
  }
}

TEST_F(DrilldownTest, ReportDiesOnAbsoluteKeys) {
  AtypicalCluster absolute;
  absolute.key_mode = TemporalKeyMode::kAbsolute;
  absolute.spatial.Add(0, 5.0);
  absolute.temporal.Add(100, 5.0);
  EXPECT_DEATH(BuildClusterReport(absolute, ctx_->network(),
                                  ctx_->time_grid()),
               "times of day");
}

TEST_F(DrilldownTest, UnknownMicroIdsAreSkipped) {
  AtypicalCluster synthetic = *big_;
  synthetic.micro_ids.push_back(999999999);
  const auto leaves = ResolveLeaves(synthetic, *ctx_->forest);
  EXPECT_EQ(leaves.size(), big_->micro_ids.size());
}

}  // namespace
}  // namespace analytics
}  // namespace atypical
