#include "cube/cube.h"

#include <bit>
#include <climits>
#include <cstdint>
#include <set>

#include <gtest/gtest.h>

#include "gen/workload.h"
#include "util/random.h"

namespace atypical {
namespace cube {
namespace {

// Bit pattern of a double: the measure must reproduce the baseline's sums
// exactly, not within a tolerance.
uint64_t Bits(double v) { return std::bit_cast<uint64_t>(v); }

class CubeTest : public ::testing::Test {
 protected:
  CubeTest() : workload_(MakeWorkload(WorkloadScale::kTiny, 19)) {
    records_ = workload_->generator->GenerateMonthAtypical(0);
    grid_ = workload_->gen_config.time_grid;
  }

  const RegionGrid& regions() { return *workload_->regions; }
  int days_per_month() const {
    return workload_->gen_config.days_per_month;
  }

  std::unique_ptr<Workload> workload_;
  std::vector<AtypicalRecord> records_;
  TimeGrid grid_;
};

TEST_F(CubeTest, TotalSeverityConserved) {
  const RegionDayMeasure cube =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  double record_total = 0.0;
  for (const AtypicalRecord& r : records_)
    record_total += static_cast<double>(r.severity_minutes);
  std::vector<RegionId> all_regions;
  for (RegionId r = 0; r < static_cast<RegionId>(regions().num_regions());
       ++r) {
    all_regions.push_back(r);
  }
  EXPECT_NEAR(cube.F(all_regions, DayRange{0, 6}), record_total, 1e-3);
  // Days past the stored rows add nothing, bit for bit, and are not walked.
  EXPECT_EQ(cube.F(all_regions, DayRange{INT_MIN, INT_MAX}),
            cube.F(all_regions, DayRange{0, 6}));
}

TEST_F(CubeTest, FIsDistributiveOverDayPartitions) {
  // Property 4: F over (W, T) equals the sum of F over any partition of T.
  const RegionDayMeasure cube =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  std::vector<RegionId> all_regions;
  for (RegionId r = 0; r < static_cast<RegionId>(regions().num_regions());
       ++r) {
    all_regions.push_back(r);
  }
  const double whole = cube.F(all_regions, DayRange{0, 6});
  for (int split = 0; split < 6; ++split) {
    const double left = cube.F(all_regions, DayRange{0, split});
    const double right = cube.F(all_regions, DayRange{split + 1, 6});
    EXPECT_NEAR(left + right, whole, 1e-6) << "split " << split;
  }
}

TEST_F(CubeTest, FIsDistributiveOverRegionPartitions) {
  const RegionDayMeasure cube =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  const DayRange days{0, 6};
  std::vector<RegionId> all_regions;
  for (RegionId r = 0; r < static_cast<RegionId>(regions().num_regions());
       ++r) {
    all_regions.push_back(r);
  }
  const double whole = cube.F(all_regions, days);
  // Random bipartition of regions.
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    std::vector<RegionId> left;
    std::vector<RegionId> right;
    for (RegionId r : all_regions) {
      (rng.Bernoulli(0.5) ? left : right).push_back(r);
    }
    EXPECT_NEAR(cube.F(left, days) + cube.F(right, days), whole, 1e-6);
  }
}

TEST_F(CubeTest, MergeFromEqualsConcatenatedBuild) {
  const std::vector<AtypicalRecord> month1 =
      workload_->generator->GenerateMonthAtypical(1);
  CubeView merged = CubeView::FromAtypical(records_, regions(), grid_);
  merged.MergeFrom(CubeView::FromAtypical(month1, regions(), grid_));

  std::vector<AtypicalRecord> both = records_;
  both.insert(both.end(), month1.begin(), month1.end());
  const CubeView direct = CubeView::FromAtypical(both, regions(), grid_);

  EXPECT_EQ(merged.num_cells(), direct.num_cells());
  for (RegionId r = 0; r < static_cast<RegionId>(regions().num_regions());
       ++r) {
    for (int day = 0; day < 14; ++day) {
      const CubeCell* m = merged.Lookup(CubeLevel::kRegionDay, r, day);
      const CubeCell* d = direct.Lookup(CubeLevel::kRegionDay, r, day);
      ASSERT_EQ(m == nullptr, d == nullptr)
          << "region " << r << " day " << day;
      if (m == nullptr) continue;
      EXPECT_NEAR(m->severity, d->severity, 1e-6)
          << "region " << r << " day " << day;
      EXPECT_EQ(m->count, d->count) << "region " << r << " day " << day;
    }
  }
}

TEST_F(CubeTest, RegionDayMatchesBruteForce) {
  const RegionDayMeasure cube =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  // Pick the busiest region and compare against a direct scan.
  std::map<RegionId, double> per_region;
  for (const AtypicalRecord& r : records_) {
    if (grid_.DayOfWindow(r.window) == 2) {
      per_region[regions().RegionOfSensor(r.sensor)] +=
          static_cast<double>(r.severity_minutes);
    }
  }
  for (const auto& [region, severity] : per_region) {
    EXPECT_NEAR(cube.RegionDaySeverity(region, 2), severity, 1e-6);
  }
}

TEST_F(CubeTest, EmptyCellsReadZero) {
  const RegionDayMeasure measure =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  EXPECT_DOUBLE_EQ(measure.RegionDaySeverity(0, 1000), 0.0);
  const CubeView cube = CubeView::FromAtypical(records_, regions(), grid_);
  EXPECT_EQ(cube.Lookup(CubeLevel::kSensorDay, 9999, 0), nullptr);
}

TEST_F(CubeTest, MeasureMatchesCubeViewRegionDay) {
  const RegionDayMeasure measure =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  const CubeView view = CubeView::FromAtypical(records_, regions(), grid_);
  const auto num_regions = static_cast<RegionId>(regions().num_regions());
  int occupied = 0;
  for (RegionId r = 0; r < num_regions; ++r) {
    for (int day = 0; day < days_per_month(); ++day) {
      const CubeCell* cell = view.Lookup(CubeLevel::kRegionDay, r, day);
      occupied += cell != nullptr ? 1 : 0;
      EXPECT_EQ(Bits(measure.RegionDaySeverity(r, day)),
                Bits(cell == nullptr ? 0.0 : cell->severity))
          << "region " << r << " day " << day;
    }
  }
  EXPECT_GT(occupied, 0);
  // Reads outside the stored rows are defined as 0.0.
  for (const int day : {-1, days_per_month(), 1000}) {
    EXPECT_EQ(Bits(measure.RegionDaySeverity(0, day)), Bits(0.0));
  }
  for (const RegionId r : {num_regions, num_regions + 7, kInvalidRegion}) {
    EXPECT_EQ(Bits(measure.RegionDaySeverity(r, 0)), Bits(0.0));
  }
  EXPECT_EQ(Bits(RegionDayMeasure().RegionDaySeverity(0, 0)), Bits(0.0));
}

TEST_F(CubeTest, MeasureMergeFromIsBitEqualToOneShot) {
  const std::vector<std::vector<AtypicalRecord>> months = {
      records_, workload_->generator->GenerateMonthAtypical(1),
      workload_->generator->GenerateMonthAtypical(2)};
  std::vector<AtypicalRecord> later = months[1];
  later.insert(later.end(), months[2].begin(), months[2].end());
  std::vector<AtypicalRecord> all = records_;
  all.insert(all.end(), later.begin(), later.end());
  const RegionDayMeasure direct =
      RegionDayMeasure::FromAtypical(all, regions(), grid_);

  // Month by month into a default-constructed measure, as serving does.
  RegionDayMeasure monthly;
  for (const std::vector<AtypicalRecord>& month : months) {
    monthly.MergeFrom(RegionDayMeasure::FromAtypical(month, regions(), grid_));
  }
  // A longer table (months 1-2) merged into a shorter one (month 0).
  RegionDayMeasure grown =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  grown.MergeFrom(RegionDayMeasure::FromAtypical(later, regions(), grid_));

  const auto num_regions = static_cast<RegionId>(regions().num_regions());
  for (RegionId r = 0; r <= num_regions; ++r) {
    for (int day = -1; day <= 3 * days_per_month(); ++day) {
      const uint64_t want = Bits(direct.RegionDaySeverity(r, day));
      EXPECT_EQ(Bits(monthly.RegionDaySeverity(r, day)), want)
          << "region " << r << " day " << day;
      EXPECT_EQ(Bits(grown.RegionDaySeverity(r, day)), want)
          << "region " << r << " day " << day;
    }
  }
  EXPECT_EQ(monthly.ByteSize(), direct.ByteSize());
  EXPECT_EQ(grown.ByteSize(), direct.ByteSize());
}

TEST_F(CubeTest, MeasureMergeFromGrowsShorterRows) {
  // A one-region partition gives rows shorter than the tiny grid's; merging
  // the wide rows in must grow them, reading absent cells as 0.0.
  const RegionGrid coarse(*workload_->sensors, 1e6);
  ASSERT_LT(coarse.num_regions(), regions().num_regions());
  const RegionDayMeasure narrow =
      RegionDayMeasure::FromAtypical(records_, coarse, grid_);
  const RegionDayMeasure wide =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  RegionDayMeasure merged = narrow;
  merged.MergeFrom(wide);
  for (RegionId r = 0; r < static_cast<RegionId>(regions().num_regions());
       ++r) {
    for (int day = 0; day < days_per_month(); ++day) {
      EXPECT_EQ(Bits(merged.RegionDaySeverity(r, day)),
                Bits(narrow.RegionDaySeverity(r, day) +
                     wide.RegionDaySeverity(r, day)))
          << "region " << r << " day " << day;
    }
  }
  EXPECT_EQ(merged.ByteSize(), wide.ByteSize());
}

TEST_F(CubeTest, MeasureByteSizeIsDensePayload) {
  const RegionDayMeasure measure =
      RegionDayMeasure::FromAtypical(records_, regions(), grid_);
  std::set<int> days;
  for (const AtypicalRecord& r : records_) {
    days.insert(grid_.DayOfWindow(r.window));
  }
  EXPECT_EQ(measure.ByteSize(), days.size() *
                                    static_cast<uint64_t>(
                                        regions().num_regions()) *
                                    sizeof(double));
  EXPECT_EQ(RegionDayMeasure().ByteSize(), 0u);
}

TEST_F(CubeTest, OcCubeAggregatesAllReadings) {
  const Dataset month = workload_->generator->GenerateMonth(0);
  const CubeView oc = CubeView::FromReadings(month, regions());
  EXPECT_EQ(oc.build_stats().records, month.num_readings());
  // Region-day count cells must cover every reading.
  int64_t count = 0;
  for (RegionId r = 0; r < static_cast<RegionId>(regions().num_regions());
       ++r) {
    for (int day = 0; day < 7; ++day) {
      const CubeCell* cell = oc.Lookup(CubeLevel::kRegionDay, r, day);
      if (cell != nullptr) count += cell->count;
    }
  }
  EXPECT_EQ(count, month.num_readings());
}

TEST_F(CubeTest, McCubeIsSmallerThanOc) {
  const Dataset month = workload_->generator->GenerateMonth(0);
  const CubeView oc = CubeView::FromReadings(month, regions());
  const CubeView mc = CubeView::FromAtypical(records_, regions(), grid_);
  EXPECT_LT(mc.num_cells(), oc.num_cells());
  EXPECT_LT(mc.ByteSize(), oc.ByteSize());
}

TEST_F(CubeTest, BuildStatsPopulated) {
  const CubeView cube = CubeView::FromAtypical(records_, regions(), grid_);
  EXPECT_EQ(cube.build_stats().records,
            static_cast<int64_t>(records_.size()));
  EXPECT_EQ(cube.build_stats().num_cells, cube.num_cells());
  EXPECT_EQ(cube.build_stats().byte_size, cube.ByteSize());
  EXPECT_GE(cube.build_stats().seconds, 0.0);
  EXPECT_GT(cube.num_cells(), 0u);
}

TEST(CubeHierarchyTest, LevelIndices) {
  const TimeGrid grid(15);
  EXPECT_EQ(HourOfWindow(grid.MakeWindow(0, 4), grid), 1);
  EXPECT_EQ(HourOfWindow(grid.MakeWindow(1, 0), grid), 24);
  EXPECT_EQ(DayOfWindow(grid.MakeWindow(3, 10), grid), 3);
  EXPECT_EQ(WeekOfDay(0), 0);
  EXPECT_EQ(WeekOfDay(6), 0);
  EXPECT_EQ(WeekOfDay(7), 1);
  EXPECT_EQ(MonthOfDay(27, 28), 0);
  EXPECT_EQ(MonthOfDay(28, 28), 1);
}

TEST(CubeHierarchyTest, LevelNames) {
  EXPECT_STREQ(CubeLevelName(CubeLevel::kRegionHour), "region_hour");
  EXPECT_STREQ(CubeLevelName(CubeLevel::kRegionWeek), "region_week");
}

}  // namespace
}  // namespace cube
}  // namespace atypical
