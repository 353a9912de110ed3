// Snapshot isolation (DESIGN §16): epochs advance monotonically, published
// snapshots are immutable — a reader holding an old epoch keeps getting the
// old answer while new epochs see new data — and the engine runs against a
// const forest (the const-correctness regression this layer depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "analytics/report.h"
#include "core/query.h"
#include "cube/red_zone.h"
#include "serve/snapshot.h"
#include "serve_test_util.h"

namespace atypical {
namespace serve {
namespace {

class ServeSnapshotTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = analytics::BuildContext(WorkloadScale::kTiny, 2,
                                   analytics::DefaultForestParams(), 29)
               .release();
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  static analytics::ExperimentContext* ctx_;
};

analytics::ExperimentContext* ServeSnapshotTest::ctx_ = nullptr;

// The engine must accept a const forest: Run() is const and draws result
// ids from a query-local generator, so a frozen snapshot is sufficient.
// This line is the compile-time regression for the old signature, which
// demanded a mutable AtypicalForest* and made snapshot serving impossible.
static_assert(
    std::is_constructible_v<QueryEngine, const SensorNetwork*,
                            const SpatialPartition*, const AtypicalForest*,
                            const cube::RegionDayMeasure*,
                            const QueryEngineOptions&>,
    "QueryEngine must be constructible over a const forest");

TEST_F(ServeSnapshotTest, InitialSnapshotIsEmptyButServable) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  std::shared_ptr<const ForestSnapshot> snap = serving->AcquireSnapshot();
  ASSERT_NE(snap, nullptr);
  EXPECT_EQ(snap->epoch, 1u);
  EXPECT_EQ(serving->current_epoch(), 1u);

  const QueryResult result =
      snap->engine.Run(ctx_->WholeAreaQuery(7), QueryStrategy::kAll);
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.completeness.days_with_data, 0);
}

TEST_F(ServeSnapshotTest, EpochsAdvanceMonotonically) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  uint64_t last = serving->current_epoch();
  for (int i = 0; i < 3; ++i) {
    std::shared_ptr<const ForestSnapshot> snap = serving->PublishSnapshot();
    EXPECT_GT(snap->epoch, last);
    EXPECT_EQ(serving->current_epoch(), snap->epoch);
    last = snap->epoch;
  }
}

TEST_F(ServeSnapshotTest, OldEpochKeepsOldAnswer) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  StageMonth(*ctx_, 0, serving.get());
  std::shared_ptr<const ForestSnapshot> month0 = serving->PublishSnapshot();

  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  const QueryResult before =
      month0->engine.Run(query, QueryStrategy::kAll);

  // Writer keeps going: month 1 lands and is published.  The old snapshot
  // must not see it.
  StageMonth(*ctx_, 1, serving.get());
  std::shared_ptr<const ForestSnapshot> month1 = serving->PublishSnapshot();
  EXPECT_GT(month1->epoch, month0->epoch);

  const QueryResult after = month0->engine.Run(query, QueryStrategy::kAll);
  ExpectBitIdentical(before, after);

  // The new epoch does see the new days (months are 7 days at kTiny scale,
  // so days 7..13 only have data at epoch month1).
  const QueryResult fresh = month1->engine.Run(query, QueryStrategy::kAll);
  EXPECT_GT(fresh.completeness.days_with_data,
            before.completeness.days_with_data);
}

TEST_F(ServeSnapshotTest, RepeatedRunsOnOneSnapshotAreBitIdentical) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  StageMonth(*ctx_, 0, serving.get());
  std::shared_ptr<const ForestSnapshot> snap = serving->PublishSnapshot();

  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  for (const QueryStrategy strategy :
       {QueryStrategy::kAll, QueryStrategy::kPrune, QueryStrategy::kGuided}) {
    const QueryResult first = snap->engine.Run(query, strategy);
    const QueryResult second = snap->engine.Run(query, strategy);
    ExpectBitIdentical(first, second);
    // Result macro ids come from the query-local base, never from stored
    // leaf ids (which count from 1).
    for (const AtypicalCluster& c : first.clusters) {
      if (c.num_micros() > 1) {
        EXPECT_GE(c.id, kQueryMacroIdBase);
      }
    }
  }
}

TEST_F(ServeSnapshotTest, SnapshotSurvivesServingForestMutation) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  StageMonth(*ctx_, 0, serving.get());
  std::shared_ptr<const ForestSnapshot> snap = serving->PublishSnapshot();
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  const QueryResult before = snap->engine.Run(query, QueryStrategy::kGuided);

  // Heavy staging churn after the publish: more data, re-materialization.
  StageMonth(*ctx_, 1, serving.get());
  serving->staging_forest()->MaterializeWeeks();
  serving->staging_forest()->MaterializeMonths(ctx_->days_per_month());
  serving->PublishSnapshot();

  const QueryResult after = snap->engine.Run(query, QueryStrategy::kGuided);
  ExpectBitIdentical(before, after);
}

TEST_F(ServeSnapshotTest, OldEpochKeepsItsMeasureWhenStagedDaysChange) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  StageMonth(*ctx_, 0, serving.get());
  std::shared_ptr<const ForestSnapshot> old_epoch = serving->PublishSnapshot();

  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  const std::vector<RegionId> regions =
      ctx_->regions().RegionsInRect(query.area);
  const double f_before = old_epoch->cube->F(regions, query.days);
  ASSERT_GT(f_before, 0.0);
  const QueryResult gui_before =
      old_epoch->engine.Run(query, QueryStrategy::kGuided);
  // A threshold only the doubled severities cross: no red zone now, at
  // least one once month 0 counts twice.
  double hottest = 0.0;
  for (const RegionId r : regions) {
    hottest = std::max(hottest, old_epoch->cube->F({r}, query.days));
  }
  const double threshold = 1.5 * hottest;
  ASSERT_TRUE(cube::ComputeRedZones(*old_epoch->cube, regions, query.days,
                                    threshold)
                  .empty());

  // The days the old epoch reads change in place: month 0's records are
  // merged into the staging measure a second time.
  serving->staging_cube()->MergeFrom(cube::RegionDayMeasure::FromAtypical(
      ctx_->monthly_atypical[0], ctx_->regions(), ctx_->time_grid()));
  std::shared_ptr<const ForestSnapshot> new_epoch = serving->PublishSnapshot();

  EXPECT_EQ(std::bit_cast<uint64_t>(old_epoch->cube->F(regions, query.days)),
            std::bit_cast<uint64_t>(f_before));
  EXPECT_TRUE(cube::ComputeRedZones(*old_epoch->cube, regions, query.days,
                                    threshold)
                  .empty());
  ExpectBitIdentical(gui_before,
                     old_epoch->engine.Run(query, QueryStrategy::kGuided));

  EXPECT_EQ(std::bit_cast<uint64_t>(new_epoch->cube->F(regions, query.days)),
            std::bit_cast<uint64_t>(2.0 * f_before));
  EXPECT_FALSE(cube::ComputeRedZones(*new_epoch->cube, regions, query.days,
                                     threshold)
                   .empty());
}

}  // namespace
}  // namespace serve
}  // namespace atypical
