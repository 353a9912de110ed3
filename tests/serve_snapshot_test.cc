// Snapshot isolation (DESIGN §16): epochs advance monotonically, published
// snapshots are immutable — a reader holding an old epoch keeps getting the
// old answer while new epochs see new data — and the engine runs against a
// const forest (the const-correctness regression this layer depends on).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <type_traits>
#include <vector>

#include "analytics/report.h"
#include "core/query.h"
#include "obs/stats.h"
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
                            const RegionGrid*, const AtypicalForest*,
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

TEST_F(ServeSnapshotTest, PreviousEpochIsReleasedAfterUnlock) {
  // When the store drops the last reference to the previous epoch, that
  // epoch's teardown must not run under the store's lock: a reader arriving
  // meanwhile gets the new epoch at once.  The bounded wait turns a
  // regression into a failure instead of a hang.
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  const std::shared_ptr<const ForestSnapshot> base = serving->AcquireSnapshot();
  auto make = [&](uint64_t epoch) {
    return new ForestSnapshot(epoch, &ctx_->network(), &ctx_->regions(),
                              base->forest, base->cube,
                              analytics::DefaultEngineOptions());
  };
  std::future<uint64_t> reader;
  bool reader_finished = false;
  SnapshotStore store;
  store.PublishSnapshot(std::shared_ptr<const ForestSnapshot>(
      make(1), [&](const ForestSnapshot* old) {
        reader = std::async(std::launch::async,
                            [&store] { return store.current_epoch(); });
        reader_finished = reader.wait_for(std::chrono::seconds(1)) ==
                          std::future_status::ready;
        delete old;
      }));
  store.PublishSnapshot(std::shared_ptr<const ForestSnapshot>(make(2)));
  ASSERT_TRUE(reader.valid()) << "epoch 1 was not released by the publish";
  EXPECT_TRUE(reader_finished)
      << "epoch 1 was torn down while the store's lock was held";
  EXPECT_EQ(reader.get(), 2u);
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

uint64_t DaysCopied() {
  return obs::Registry()->GetCounter("serve.snapshot.days_copied")->value();
}

// A publish deep-copies only the days that changed since the previous
// epoch; every other day's leaves are one block shared by both epochs.
TEST_F(ServeSnapshotTest, UnchangedDaysAreSharedBetweenEpochs) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  StageMonth(*ctx_, 0, serving.get());
  const std::shared_ptr<const ForestSnapshot> e1 = serving->PublishSnapshot();

  // Day 7's leaves, built apart from the staging forest, then installed.
  AtypicalForest month1(&ctx_->network(), ctx_->time_grid(),
                        ctx_->forest_params);
  month1.AddRecords(ctx_->monthly_atypical[1]);
  ASSERT_TRUE(month1.HasDay(7));
  AtypicalForest* staging = serving->staging_forest();
  staging->InstallDay(7, month1.MicrosOfDay(7));
  const uint64_t copied_before = DaysCopied();
  const std::shared_ptr<const ForestSnapshot> e2 = serving->PublishSnapshot();
  EXPECT_EQ(DaysCopied(), copied_before + 1);

  for (int day = 0; day < 7; ++day) {
    EXPECT_EQ(&e1->forest->MicrosOfDay(day), &e2->forest->MicrosOfDay(day))
        << "day " << day;
    EXPECT_NE(&e2->forest->MicrosOfDay(day), &staging->MicrosOfDay(day))
        << "day " << day;
  }
  EXPECT_FALSE(e1->forest->HasDay(7));
  EXPECT_NE(&e2->forest->MicrosOfDay(7), &staging->MicrosOfDay(7));
  EXPECT_EQ(e2->forest->MicrosOfDay(7).size(), staging->MicrosOfDay(7).size());
  EXPECT_EQ(e2->forest->ByteSize(), staging->ByteSize());

  const std::shared_ptr<const ForestSnapshot> e3 = serving->PublishSnapshot();
  EXPECT_EQ(DaysCopied(), copied_before + 1);
  EXPECT_EQ(&e3->forest->MicrosOfDay(7), &e2->forest->MicrosOfDay(7));
}

// Every region×day cell an epoch reads keeps its bits when the staging
// measure merges into the same days, and the next epoch sees the sums.
TEST_F(ServeSnapshotTest, MergeDoesNotReachPublishedMeasure) {
  auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
  const std::shared_ptr<const ForestSnapshot> old_epoch =
      serving->PublishSnapshot();
  const int regions = ctx_->regions().num_regions();
  const int days = 2 * ctx_->days_per_month() + 1;
  auto cells = [&](const cube::RegionDayMeasure& measure) {
    std::vector<uint64_t> bits;
    for (int day = 0; day < days; ++day) {
      for (RegionId r = 0; r < static_cast<RegionId>(regions); ++r) {
        bits.push_back(
            std::bit_cast<uint64_t>(measure.RegionDaySeverity(r, day)));
      }
    }
    return bits;
  };
  const std::vector<uint64_t> before = cells(*old_epoch->cube);
  const uint64_t bytes_before = old_epoch->cube->ByteSize();
  ASSERT_GT(bytes_before, 0u);

  const cube::RegionDayMeasure month0 = cube::RegionDayMeasure::FromAtypical(
      ctx_->monthly_atypical[0], ctx_->regions(), ctx_->time_grid());
  cube::RegionDayMeasure expected = *old_epoch->cube;
  expected.MergeFrom(month0);
  serving->staging_cube()->MergeFrom(month0);

  EXPECT_EQ(cells(*old_epoch->cube), before);
  EXPECT_EQ(old_epoch->cube->ByteSize(), bytes_before);
  const std::shared_ptr<const ForestSnapshot> new_epoch =
      serving->PublishSnapshot();
  EXPECT_EQ(cells(*new_epoch->cube), cells(expected));
  EXPECT_NE(cells(*new_epoch->cube), before);
  EXPECT_EQ(cells(*old_epoch->cube), before);
}

}  // namespace
}  // namespace serve
}  // namespace atypical
