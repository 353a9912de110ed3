// Red-zone computation and Property 5 (safe pruning).
#include "cube/red_zone.h"

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "gen/workload.h"

namespace atypical {
namespace cube {
namespace {

class RedZoneTest : public ::testing::Test {
 protected:
  RedZoneTest() : workload_(MakeWorkload(WorkloadScale::kTiny, 23)) {
    records_ = workload_->generator->GenerateMonthAtypical(0);
    grid_ = workload_->gen_config.time_grid;
    cube_ =
        RegionDayMeasure::FromAtypical(records_, *workload_->regions, grid_);
    for (RegionId r = 0;
         r < static_cast<RegionId>(workload_->regions->num_regions()); ++r) {
      all_regions_.push_back(r);
    }
  }

  std::unique_ptr<Workload> workload_;
  std::vector<AtypicalRecord> records_;
  TimeGrid grid_;
  RegionDayMeasure cube_;
  std::vector<RegionId> all_regions_;
};

TEST_F(RedZoneTest, ZeroThresholdMarksOccupiedRegions) {
  // Threshold 0 keeps exactly the regions with any severity (F >= 0 holds
  // for all, so with threshold epsilon every nonzero region qualifies).
  const auto red =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 1e-9);
  for (RegionId r : all_regions_) {
    const double f = cube_.F({r}, DayRange{0, 6});
    const bool is_red = std::find(red.begin(), red.end(), r) != red.end();
    EXPECT_EQ(is_red, f >= 1e-9) << "region " << r;
  }
}

TEST_F(RedZoneTest, HugeThresholdMarksNothing) {
  EXPECT_TRUE(
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 1e12).empty());
}

TEST_F(RedZoneTest, ThresholdIsMonotone) {
  const auto low =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 10.0);
  const auto high =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 1000.0);
  EXPECT_GE(low.size(), high.size());
  for (RegionId r : high) {
    EXPECT_NE(std::find(low.begin(), low.end(), r), low.end());
  }
}

TEST_F(RedZoneTest, Property5NoSignificantClusterInColdRegion) {
  // For any region below the threshold, every cluster fully contained in it
  // must itself be below the threshold.
  ClusterIdGenerator ids(1);
  const auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  const double threshold = 200.0;
  const auto red =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, threshold);
  const std::set<RegionId> red_set(red.begin(), red.end());
  for (const AtypicalCluster& c : micros) {
    // Is the cluster contained in a single cold region?
    std::set<RegionId> touched;
    for (const auto& e : c.spatial.entries()) {
      touched.insert(workload_->regions->RegionOfSensor(e.key));
    }
    if (touched.size() == 1 && !red_set.contains(*touched.begin())) {
      EXPECT_LT(c.severity(), threshold)
          << "cluster " << c.id << " contradicts Property 5";
    }
  }
}

TEST_F(RedZoneTest, KeepIntersectingRetainsBoundaryClusters) {
  ClusterIdGenerator ids(1);
  auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  const size_t total = micros.size();
  const auto red =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 150.0);
  const std::set<RegionId> red_set(red.begin(), red.end());

  const auto kept = FilterByRedZones(micros, red, *workload_->regions,
                                     RedZoneFilterMode::kKeepIntersecting);
  EXPECT_LE(kept.size(), total);
  // Exactly the clusters touching a red zone survive.
  size_t expected = 0;
  for (const AtypicalCluster& c : micros) {
    for (const auto& e : c.spatial.entries()) {
      if (red_set.contains(workload_->regions->RegionOfSensor(e.key))) {
        ++expected;
        break;
      }
    }
  }
  EXPECT_EQ(kept.size(), expected);
}

TEST_F(RedZoneTest, KeepContainedIsStricterThanIntersecting) {
  ClusterIdGenerator ids(1);
  const auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  const auto red =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 150.0);
  const auto intersecting = FilterByRedZones(
      micros, red, *workload_->regions, RedZoneFilterMode::kKeepIntersecting);
  const auto contained = FilterByRedZones(
      micros, red, *workload_->regions, RedZoneFilterMode::kKeepContained);
  EXPECT_LE(contained.size(), intersecting.size());
}

TEST_F(RedZoneTest, FilterKeepsFeaturesIntact) {
  // Survivors pass whole — severities must be unchanged.
  ClusterIdGenerator ids(1);
  const auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  std::map<ClusterId, double> original;
  for (const AtypicalCluster& c : micros) original[c.id] = c.severity();
  const auto red =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 150.0);
  const auto kept = FilterByRedZones(micros, red, *workload_->regions,
                                     RedZoneFilterMode::kKeepIntersecting);
  for (const AtypicalCluster& c : kept) {
    EXPECT_DOUBLE_EQ(c.severity(), original.at(c.id));
  }
}

TEST_F(RedZoneTest, NoRedZonesPrunesEverything) {
  ClusterIdGenerator ids(1);
  const auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  const auto kept = FilterByRedZones(micros, {}, *workload_->regions,
                                     RedZoneFilterMode::kKeepIntersecting);
  EXPECT_TRUE(kept.empty());
}

}  // namespace
}  // namespace cube
}  // namespace atypical
