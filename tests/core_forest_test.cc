#include "core/forest.h"

#include <algorithm>
#include <cstdint>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "cluster_digest.h"
#include "gen/workload.h"

namespace atypical {
namespace {

class ForestTest : public ::testing::Test {
 protected:
  ForestTest()
      : workload_(MakeWorkload(WorkloadScale::kTiny, 17)),
        forest_(workload_->sensors.get(), workload_->gen_config.time_grid,
                analytics::DefaultForestParams()) {
    records_ = workload_->generator->GenerateMonthAtypical(0);
  }

  std::unique_ptr<Workload> workload_;
  AtypicalForest forest_;
  std::vector<AtypicalRecord> records_;
};

TEST_F(ForestTest, AddRecordsGroupsByDay) {
  forest_.AddRecords(records_);
  const std::vector<int> days = forest_.Days();
  EXPECT_EQ(days.size(), 7u);  // kTiny months are 7 days
  for (int day : days) {
    EXPECT_TRUE(forest_.HasDay(day));
    EXPECT_FALSE(forest_.MicrosOfDay(day).empty());
  }
  EXPECT_GT(forest_.num_micro_clusters(), 7u);
}

TEST_F(ForestTest, MicroSeverityMatchesRecordMass) {
  forest_.AddRecords(records_);
  double micro_total = 0.0;
  for (int day : forest_.Days()) {
    for (const AtypicalCluster& c : forest_.MicrosOfDay(day)) {
      micro_total += c.severity();
    }
  }
  double record_total = 0.0;
  for (const AtypicalRecord& r : records_)
    record_total += static_cast<double>(r.severity_minutes);
  EXPECT_NEAR(micro_total, record_total, 1e-3);
}

TEST_F(ForestTest, MicrosInRangeRespectsBounds) {
  forest_.AddRecords(records_);
  const auto all = forest_.MicrosInRange(DayRange{0, 6});
  EXPECT_EQ(all.size(), forest_.num_micro_clusters());
  const auto first_two = forest_.MicrosInRange(DayRange{0, 1});
  EXPECT_LT(first_two.size(), all.size());
  for (const AtypicalCluster* c : first_two) {
    EXPECT_LE(c->first_day, 1);
  }
  EXPECT_TRUE(forest_.MicrosInRange(DayRange{100, 200}).empty());
}

TEST_F(ForestTest, MicroSeveritiesMapMatchesClusters) {
  forest_.AddRecords(records_);
  const auto severities = forest_.MicroSeverities(DayRange{0, 6});
  EXPECT_EQ(severities.size(), forest_.num_micro_clusters());
  for (const AtypicalCluster* c : forest_.MicrosInRange(DayRange{0, 6})) {
    const auto it = severities.find(c->id);
    ASSERT_NE(it, severities.end());
    EXPECT_DOUBLE_EQ(it->second, c->severity());
  }
}

TEST_F(ForestTest, MaterializeWeeksBuildsMacros) {
  forest_.AddRecords(records_);
  const size_t built = forest_.MaterializeWeeks();
  EXPECT_GT(built, 0u);
  ASSERT_TRUE(forest_.HasWeek(0));
  const auto& macros = forest_.MacrosOfWeek(0);
  EXPECT_EQ(macros.size(), built);
  // Macro severity mass equals micro mass (nothing lost in integration).
  double macro_total = 0.0;
  for (const AtypicalCluster& c : macros) {
    macro_total += c.severity();
    EXPECT_TRUE(c.key_mode == TemporalKeyMode::kTimeOfDay);
  }
  double record_total = 0.0;
  for (const AtypicalRecord& r : records_)
    record_total += static_cast<double>(r.severity_minutes);
  EXPECT_NEAR(macro_total, record_total, 1e-3);
  // Integration happened: fewer macros than micros.
  EXPECT_LT(macros.size(), forest_.num_micro_clusters());
}

TEST_F(ForestTest, MaterializeMonthsBuildsTreeWithChildren) {
  forest_.AddRecords(records_);
  forest_.MaterializeMonths(workload_->gen_config.days_per_month);
  ASSERT_TRUE(forest_.HasMonth(0));
  bool any_merged = false;
  for (const AtypicalCluster& c : forest_.MacrosOfMonth(0)) {
    if (c.num_micros() > 1) {
      any_merged = true;
      // A merged macro records its immediate children (Fig. 10 tree).
      EXPECT_NE(c.left_child, 0u);
      EXPECT_NE(c.right_child, 0u);
      EXPECT_NE(c.left_child, c.right_child);
    }
  }
  EXPECT_TRUE(any_merged);
}

TEST_F(ForestTest, RematerializationReplacesLevel) {
  forest_.AddRecords(records_);
  const size_t first = forest_.MaterializeWeeks();
  const size_t second = forest_.MaterializeWeeks();
  EXPECT_EQ(first, second);
  EXPECT_EQ(forest_.MacrosOfWeek(0).size(), second);
}

TEST_F(ForestTest, MultipleMonthsSpanWeeks) {
  forest_.AddRecords(records_);
  forest_.AddRecords(workload_->generator->GenerateMonthAtypical(1));
  EXPECT_EQ(forest_.Days().size(), 14u);
  forest_.MaterializeWeeks();
  EXPECT_TRUE(forest_.HasWeek(0));
  EXPECT_TRUE(forest_.HasWeek(1));
  EXPECT_FALSE(forest_.HasWeek(2));
}

TEST_F(ForestTest, ByteSizeGrowsWithData) {
  forest_.AddRecords(records_);
  const uint64_t before = forest_.ByteSize();
  EXPECT_GT(before, 0u);
  forest_.AddRecords(workload_->generator->GenerateMonthAtypical(1));
  EXPECT_GT(forest_.ByteSize(), before);
}

TEST_F(ForestTest, IdsAreSharedAndUnique) {
  forest_.AddRecords(records_);
  forest_.MaterializeWeeks();
  std::set<ClusterId> ids;
  for (int day : forest_.Days()) {
    for (const AtypicalCluster& c : forest_.MicrosOfDay(day)) {
      EXPECT_TRUE(ids.insert(c.id).second);
    }
  }
  for (const AtypicalCluster& c : forest_.MacrosOfWeek(0)) {
    // Macros that merged nothing keep their micro's id; merged ones are new.
    if (c.num_micros() > 1) {
      EXPECT_TRUE(ids.insert(c.id).second);
    }
  }
}

TEST_F(ForestTest, DuplicateDayReplayAppends) {
  // Replaying a batch for days the forest already holds must append, not
  // crash (the documented late-batch merge policy).
  forest_.AddRecords(records_);
  const size_t micros_before = forest_.num_micro_clusters();
  forest_.AddRecords(records_);
  EXPECT_EQ(forest_.Days().size(), 7u);
  EXPECT_EQ(forest_.num_micro_clusters(), 2 * micros_before);
}

TEST_F(ForestTest, OverlappingBatchesMergeIntoExistingDays) {
  // Split the month into two batches that both contain day-3 records: the
  // second batch's day 3 must land as extra micro-clusters on the existing
  // leaf, with severity mass conserved across the whole replay.
  const TimeGrid& grid = workload_->gen_config.time_grid;
  std::vector<AtypicalRecord> first;
  std::vector<AtypicalRecord> second;
  bool flip = false;
  for (const AtypicalRecord& r : records_) {
    const int day = grid.DayOfWindow(r.window);
    if (day < 3) {
      first.push_back(r);
    } else if (day > 3) {
      second.push_back(r);
    } else {
      ((flip = !flip) ? first : second).push_back(r);
    }
  }
  ASSERT_FALSE(first.empty());
  ASSERT_FALSE(second.empty());

  forest_.AddRecords(first);
  ASSERT_TRUE(forest_.HasDay(3));
  const size_t day3_before = forest_.MicrosOfDay(3).size();

  forest_.AddRecords(second);  // pre-fix: CHECK "already added" aborts here
  EXPECT_EQ(forest_.Days().size(), 7u);
  EXPECT_GT(forest_.MicrosOfDay(3).size(), day3_before);

  double micro_total = 0.0;
  size_t micro_count = 0;
  for (int day : forest_.Days()) {
    micro_count += forest_.MicrosOfDay(day).size();
    for (const AtypicalCluster& c : forest_.MicrosOfDay(day)) {
      micro_total += c.severity();
    }
  }
  EXPECT_EQ(micro_count, forest_.num_micro_clusters());
  double record_total = 0.0;
  for (const AtypicalRecord& r : records_)
    record_total += static_cast<double>(r.severity_minutes);
  EXPECT_NEAR(micro_total, record_total, 1e-3);
}

TEST_F(ForestTest, InstallDayStaysStrictOnDuplicates) {
  // Unlike AddRecords, InstallDay hands over pre-built micros and keeps its
  // exactly-once contract.
  forest_.AddRecords(records_);
  EXPECT_DEATH(forest_.InstallDay(0, {}), "already present");
}

TEST_F(ForestTest, InstalledForestKeepsGeneratingFreshIds) {
  // A forest rebuilt from pre-built leaves must hand out ids above every
  // installed cluster id and every micro id those clusters carry, so new
  // clusters never collide with installed ones.
  forest_.AddRecords(records_);
  AtypicalForest installed(workload_->sensors.get(),
                           workload_->gen_config.time_grid,
                           analytics::DefaultForestParams());
  ClusterId max_id = 0;
  for (int day : forest_.Days()) {
    for (const AtypicalCluster& c : forest_.MicrosOfDay(day)) {
      max_id = std::max(max_id, c.id);
    }
    installed.InstallDay(day, forest_.MicrosOfDay(day));
  }
  EXPECT_GT(installed.ids()->Next(), max_id);

  AtypicalCluster merged;
  merged.id = 1;
  merged.micro_ids = {max_id + 10, max_id + 20};
  installed.InstallDay(100, {merged});
  EXPECT_GT(installed.ids()->Next(), max_id + 20);
}

// An epoch copy (what ServingForest::PublishSnapshot serves, DESIGN §16)
// shares blocks between epochs; a late batch on the staging forest must
// reach neither the published block nor the copy that shares it.
TEST_F(ForestTest, LateBatchDoesNotReachPublishedEpoch) {
  const TimeGrid& grid = workload_->gen_config.time_grid;
  std::vector<AtypicalRecord> day3;
  for (const AtypicalRecord& r : records_) {
    if (grid.DayOfWindow(r.window) == 3) day3.push_back(r);
  }
  ASSERT_FALSE(day3.empty());
  forest_.AddRecords(records_);
  uint64_t copied = 0;
  const AtypicalForest e1 = forest_.EpochCopy(nullptr, &copied);
  EXPECT_EQ(copied, 7u);
  const AtypicalForest e2 = forest_.EpochCopy(&e1, &copied);
  EXPECT_EQ(copied, 7u);  // nothing changed: every day is shared
  const std::vector<AtypicalCluster>& published = e2.MicrosOfDay(3);
  EXPECT_EQ(&published, &e1.MicrosOfDay(3));
  EXPECT_NE(&published, &forest_.MicrosOfDay(3));
  const size_t count = published.size();
  const ClusterId first_id = published.front().id;
  const uint64_t digest = Digest(published);

  forest_.AddDay(3, day3);
  EXPECT_EQ(published.size(), count);
  EXPECT_EQ(published.front().id, first_id);
  EXPECT_EQ(Digest(published), digest);

  const AtypicalForest e3 = forest_.EpochCopy(&e2, &copied);
  EXPECT_EQ(copied, 8u);  // day 3 only
  EXPECT_EQ(e3.MicrosOfDay(3).size(), forest_.MicrosOfDay(3).size());
  EXPECT_EQ(e3.MicrosOfDay(3).size(), 2 * count);
  EXPECT_EQ(Digest(e3.MicrosOfDay(3)), Digest(forest_.MicrosOfDay(3)));
  EXPECT_EQ(&e3.MicrosOfDay(2), &e1.MicrosOfDay(2));
}

// The same for the materialized levels: re-materializing replaces the
// staging levels, not the blocks an epoch serves.
TEST_F(ForestTest, RematerializeDoesNotReachPublishedEpoch) {
  const int month_days = workload_->gen_config.days_per_month;
  forest_.AddRecords(records_);
  forest_.MaterializeWeeks();
  forest_.MaterializeMonths(month_days);
  uint64_t copied = 0;
  const AtypicalForest e1 = forest_.EpochCopy(nullptr, &copied);
  EXPECT_EQ(copied, 7u + 1u + 1u);  // 7 days, week 0, month 0
  const uint64_t week = Digest(e1.MacrosOfWeek(0));
  const uint64_t month = Digest(e1.MacrosOfMonth(0));
  const ClusterId week_first_id = e1.MacrosOfWeek(0).front().id;

  // Re-materializing with no day mutation in between still mints new ids,
  // so the next epoch must copy the levels again.
  forest_.MaterializeWeeks();
  forest_.MaterializeMonths(month_days);
  EXPECT_EQ(Digest(e1.MacrosOfWeek(0)), week);
  EXPECT_EQ(Digest(e1.MacrosOfMonth(0)), month);
  EXPECT_EQ(e1.MacrosOfWeek(0).front().id, week_first_id);

  const AtypicalForest e2 = forest_.EpochCopy(&e1, &copied);
  EXPECT_EQ(copied, 9u + 2u);  // days shared, both levels copied
  EXPECT_EQ(Digest(e2.MacrosOfWeek(0)), Digest(forest_.MacrosOfWeek(0)));
  EXPECT_NE(Digest(e2.MacrosOfWeek(0)), week);
  EXPECT_EQ(Digest(e2.MacrosOfMonth(0)), Digest(forest_.MacrosOfMonth(0)));

  const AtypicalForest e3 = forest_.EpochCopy(&e2, &copied);
  EXPECT_EQ(copied, 11u);  // nothing changed
  EXPECT_EQ(&e3.MacrosOfWeek(0), &e2.MacrosOfWeek(0));
  EXPECT_EQ(&e3.MacrosOfMonth(0), &e2.MacrosOfMonth(0));

  // Weeks alone, twice in a row with nothing else in between.
  forest_.MaterializeWeeks();
  const AtypicalForest e4 = forest_.EpochCopy(&e3, &copied);
  forest_.MaterializeWeeks();
  const AtypicalForest e5 = forest_.EpochCopy(&e4, &copied);
  EXPECT_EQ(copied, 13u);  // the week level, twice
  EXPECT_EQ(&e5.MacrosOfMonth(0), &e2.MacrosOfMonth(0));
  EXPECT_NE(Digest(e4.MacrosOfWeek(0)), Digest(e3.MacrosOfWeek(0)));
  EXPECT_NE(Digest(e5.MacrosOfWeek(0)), Digest(e4.MacrosOfWeek(0)));
  EXPECT_EQ(Digest(e5.MacrosOfWeek(0)), Digest(forest_.MacrosOfWeek(0)));
}

TEST_F(ForestTest, DeathOnWrongDayRecords) {
  std::vector<AtypicalRecord> wrong = {records_.front()};
  const int actual_day =
      workload_->gen_config.time_grid.DayOfWindow(wrong[0].window);
  EXPECT_DEATH(forest_.AddDay(actual_day + 1, wrong), "Check failed");
}

TEST_F(ForestTest, DeathOnMissingDayAccess) {
  EXPECT_DEATH((void)forest_.MicrosOfDay(0), "no micro-clusters");
  EXPECT_DEATH((void)forest_.MacrosOfWeek(0), "not materialized");
  EXPECT_DEATH((void)forest_.MacrosOfMonth(0), "not materialized");
}

}  // namespace
}  // namespace atypical
