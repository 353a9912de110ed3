// Full pipeline: generate → persist → re-read → scan atypical → forest →
// cube → All/Pru/Gui queries → metrics.  This is the system the paper's
// Fig. 2 describes, exercised end to end.
#include <cstdio>

#include <gtest/gtest.h>

#include "analytics/ground_truth.h"
#include "analytics/metrics.h"
#include "analytics/report.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "util/logging.h"

namespace atypical {
namespace {

class EndToEndTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    workload_ = MakeWorkload(WorkloadScale::kTiny, 41).release();
    const TimeGrid grid = workload_->gen_config.time_grid;

    // Offline construction (Fig. 2 left): write months to disk, scan them
    // back (PR), build the forest (AC) and the atypical cube (MC).
    forest_ = new AtypicalForest(workload_->sensors.get(), grid,
                                 analytics::DefaultForestParams());
    cube_ = new cube::RegionDayMeasure();
    for (int month = 0; month < 2; ++month) {
      const Dataset ds = workload_->generator->GenerateMonth(month);
      const std::string path = ::testing::TempDir() + "/e2e_month" +
                               std::to_string(month) + ".atyp";
      CHECK_OK(storage::WriteDataset(ds, path).status());
      Result<storage::DatasetReader> reader =
          storage::DatasetReader::Open(path);
      CHECK_OK(reader.status());
      std::vector<AtypicalRecord> atypical;
      const Result<int64_t> scanned =
          reader->ScanAtypical([&](const AtypicalRecord& r) {
            atypical.push_back(r);
          });
      CHECK_OK(scanned.status());
      forest_->AddRecords(atypical);
      cube_->MergeFrom(cube::RegionDayMeasure::FromAtypical(
          atypical, *workload_->regions, grid));
      std::remove(path.c_str());
    }
  }

  static void TearDownTestSuite() {
    delete forest_;
    delete cube_;
    delete workload_;
  }

  QueryEngine Engine() {
    return QueryEngine(workload_->sensors.get(), workload_->regions.get(),
                       forest_, cube_, analytics::DefaultEngineOptions());
  }

  AnalyticalQuery WholeArea(int days) {
    AnalyticalQuery q;
    q.area = workload_->sensors->bounds();
    q.days = DayRange{0, days - 1};
    return q;
  }

  static Workload* workload_;
  static AtypicalForest* forest_;
  static cube::RegionDayMeasure* cube_;
};

Workload* EndToEndTest::workload_ = nullptr;
AtypicalForest* EndToEndTest::forest_ = nullptr;
cube::RegionDayMeasure* EndToEndTest::cube_ = nullptr;

TEST_F(EndToEndTest, ForestHoldsBothMonths) {
  EXPECT_EQ(forest_->Days().size(), 14u);
  EXPECT_GT(forest_->num_micro_clusters(), 20u);
}

TEST_F(EndToEndTest, AllStrategyRecallIsPerfect) {
  const AnalyticalQuery query = WholeArea(14);
  const QueryResult all = Engine().Run(query, QueryStrategy::kAll);
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(all);
  ASSERT_GT(gt.significant.size(), 0u) << "workload produced no significant "
                                          "clusters; calibration is off";
  const auto severities = forest_->MicroSeverities(query.days);
  const analytics::PrecisionRecall pr =
      analytics::EvaluateMass(all, gt, severities);
  EXPECT_DOUBLE_EQ(pr.recall, 1.0);
  EXPECT_GT(pr.precision, 0.3);
}

TEST_F(EndToEndTest, GuidedMatchesAllOnSignificantMassAndIsCheaper) {
  const AnalyticalQuery query = WholeArea(14);
  const QueryResult all = Engine().Run(query, QueryStrategy::kAll);
  const QueryResult gui = Engine().Run(query, QueryStrategy::kGuided);
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(all);
  const auto severities = forest_->MicroSeverities(query.days);
  const analytics::PrecisionRecall pr_gui =
      analytics::EvaluateMass(gui, gt, severities);
  const analytics::PrecisionRecall pr_all =
      analytics::EvaluateMass(all, gt, severities);
  EXPECT_GT(pr_gui.recall, 0.95);
  EXPECT_GE(pr_gui.precision, pr_all.precision);
  EXPECT_LT(gui.cost.input_micro_clusters, all.cost.input_micro_clusters);
}

TEST_F(EndToEndTest, PruneTradesRecallForPrecision) {
  const AnalyticalQuery query = WholeArea(14);
  const QueryResult all = Engine().Run(query, QueryStrategy::kAll);
  const QueryResult pru = Engine().Run(query, QueryStrategy::kPrune);
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(all);
  const auto severities = forest_->MicroSeverities(query.days);
  const analytics::PrecisionRecall pr_pru =
      analytics::EvaluateMass(pru, gt, severities);
  const analytics::PrecisionRecall pr_all =
      analytics::EvaluateMass(all, gt, severities);
  EXPECT_GE(pr_pru.precision, pr_all.precision);
  EXPECT_LT(pr_pru.recall, 1.0);
  EXPECT_LE(pru.cost.input_micro_clusters,
            all.cost.input_micro_clusters * 3 / 4);
}

TEST_F(EndToEndTest, WeeklyQueriesAgreeWithWeekMacros) {
  // Integrating day micros online must conserve severity mass exactly as
  // offline materialization does.
  forest_->MaterializeWeeks();
  const auto& week0 = forest_->MacrosOfWeek(0);
  double offline_mass = 0.0;
  for (const AtypicalCluster& c : week0) offline_mass += c.severity();

  const QueryResult online = Engine().Run(WholeArea(7), QueryStrategy::kAll);
  double online_mass = 0.0;
  for (const AtypicalCluster& c : online.clusters) {
    online_mass += c.severity();
  }
  EXPECT_NEAR(online_mass, offline_mass, 1e-6);
}

TEST_F(EndToEndTest, DominantEventLabelsTraceBackToGenerator) {
  // Micro-clusters recover the generator's planted events: most micros map
  // to exactly one ground-truth event id.
  int labeled = 0;
  int total = 0;
  for (int day : forest_->Days()) {
    for (const AtypicalCluster& c : forest_->MicrosOfDay(day)) {
      ++total;
      if (c.dominant_true_event != kNoEvent) ++labeled;
    }
  }
  EXPECT_EQ(labeled, total);
}

TEST_F(EndToEndTest, QueryAnswersThePaperIntroQuestions) {
  // Example 1's three questions have concrete answers in the cluster model.
  const QueryResult result = Engine().Run(WholeArea(14), QueryStrategy::kAll);
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(result);
  ASSERT_FALSE(gt.significant.empty());
  const AtypicalCluster& top = gt.significant.front();
  // (1) Where: the hottest sensor exists and is a real sensor.
  const FeatureVector::Entry where = top.spatial.Top();
  EXPECT_LT(where.key,
            static_cast<uint32_t>(workload_->sensors->num_sensors()));
  // (2) When: the peak window is a valid time of day.
  const FeatureVector::Entry when = top.temporal.Top();
  EXPECT_LT(when.key, static_cast<uint32_t>(
                          workload_->gen_config.time_grid.WindowsPerDay()));
  // (3) How serious: severity on the top sensor is a large share of a
  // sensible total.
  EXPECT_GT(where.severity, 0.0);
  EXPECT_LE(where.severity, top.severity());
}

}  // namespace
}  // namespace atypical
