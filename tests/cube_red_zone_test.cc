// Red-zone computation and Property 5 (safe pruning).
#include "cube/red_zone.h"

#include <algorithm>
#include <cstdint>

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

  // FilterByRedZones over pointers to `clusters`, with a fresh mask.
  std::vector<const AtypicalCluster*> Kept(
      const std::vector<AtypicalCluster>& clusters,
      const std::vector<RegionId>& red, RedZoneFilterMode mode) const {
    std::vector<const AtypicalCluster*> kept;
    for (const AtypicalCluster& c : clusters) kept.push_back(&c);
    std::vector<uint8_t> in_red;
    FilterByRedZones(red, *workload_->regions, mode, &in_red, &kept);
    return kept;
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

  const auto kept = Kept(micros, red, RedZoneFilterMode::kKeepIntersecting);
  EXPECT_LE(kept.size(), total);
  // Exactly the clusters touching a red zone survive, in input order.
  std::vector<const AtypicalCluster*> expected;
  for (const AtypicalCluster& c : micros) {
    for (const auto& e : c.spatial.entries()) {
      if (red_set.contains(workload_->regions->RegionOfSensor(e.key))) {
        expected.push_back(&c);
        break;
      }
    }
  }
  EXPECT_EQ(kept, expected);
}

TEST_F(RedZoneTest, KeepContainedIsStricterThanIntersecting) {
  ClusterIdGenerator ids(1);
  const auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  const auto red =
      ComputeRedZones(cube_, all_regions_, DayRange{0, 6}, 150.0);
  const auto intersecting =
      Kept(micros, red, RedZoneFilterMode::kKeepIntersecting);
  const auto contained = Kept(micros, red, RedZoneFilterMode::kKeepContained);
  EXPECT_LE(contained.size(), intersecting.size());
  // Contained survivors are a subsequence of the intersecting ones.
  EXPECT_TRUE(std::includes(intersecting.begin(), intersecting.end(),
                            contained.begin(), contained.end()));
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
  const auto kept = Kept(micros, red, RedZoneFilterMode::kKeepIntersecting);
  for (const AtypicalCluster* c : kept) {
    EXPECT_DOUBLE_EQ(c->severity(), original.at(c->id));
  }
}

TEST_F(RedZoneTest, NoRedZonesPrunesEverything) {
  ClusterIdGenerator ids(1);
  const auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  EXPECT_TRUE(Kept(micros, {}, RedZoneFilterMode::kKeepIntersecting).empty());
  EXPECT_TRUE(Kept(micros, {}, RedZoneFilterMode::kKeepContained).empty());
}

TEST_F(RedZoneTest, EmptyRedSetClearsAReusedMask) {
  // A mask left over from a query with red zones must not leak into the
  // next query's filter.
  ClusterIdGenerator ids(1);
  const auto micros =
      RetrieveMicroClusters(records_, *workload_->sensors, grid_,
                            analytics::DefaultForestParams().retrieval, &ids);
  std::vector<uint8_t> in_red;
  std::vector<const AtypicalCluster*> kept;
  for (const AtypicalCluster& c : micros) kept.push_back(&c);
  FilterByRedZones(all_regions_, *workload_->regions,
                   RedZoneFilterMode::kKeepIntersecting, &in_red, &kept);
  EXPECT_FALSE(kept.empty());
  FilterByRedZones({}, *workload_->regions,
                   RedZoneFilterMode::kKeepIntersecting, &in_red, &kept);
  EXPECT_TRUE(kept.empty());
}

TEST_F(RedZoneTest, KeepContainedDropsAStraddlingCluster) {
  std::vector<RegionId> occupied;
  for (RegionId r : all_regions_) {
    if (workload_->regions->SensorCount(r) > 0) occupied.push_back(r);
  }
  ASSERT_GE(occupied.size(), 2u);
  const RegionId red_region = occupied[0];
  const RegionId cold_region = occupied[1];
  const SensorId red_sensor =
      workload_->regions->SensorsInRegion(red_region).front();
  const SensorId cold_sensor =
      workload_->regions->SensorsInRegion(cold_region).front();
  std::vector<AtypicalCluster> clusters(3);
  clusters[0].id = 1;  // inside the red region only
  clusters[0].spatial.Add(red_sensor, 2.0);
  clusters[1].id = 2;  // straddles the red and the cold region
  clusters[1].spatial.Add(red_sensor, 1.0);
  clusters[1].spatial.Add(cold_sensor, 1.0);
  clusters[2].id = 3;  // no sensors at all
  const std::vector<RegionId> red = {red_region};

  const auto intersecting =
      Kept(clusters, red, RedZoneFilterMode::kKeepIntersecting);
  ASSERT_EQ(intersecting.size(), 2u);
  EXPECT_EQ(intersecting[0], &clusters[0]);
  EXPECT_EQ(intersecting[1], &clusters[1]);

  const auto contained = Kept(clusters, red, RedZoneFilterMode::kKeepContained);
  ASSERT_EQ(contained.size(), 1u);
  EXPECT_EQ(contained[0], &clusters[0]);
}

TEST(SensorMaskTest, SensorsBeyondTheMaskAreUnmarked) {
  AtypicalCluster inside;
  inside.spatial.Add(1, 1.0);
  AtypicalCluster beyond;
  beyond.spatial.Add(1, 1.0);
  beyond.spatial.Add(7, 1.0);
  const std::vector<uint8_t> mask = {0, 1, 0};
  std::vector<const AtypicalCluster*> clusters = {&inside, &beyond};
  FilterBySensorMask(mask, RedZoneFilterMode::kKeepContained, &clusters);
  ASSERT_EQ(clusters.size(), 1u);
  EXPECT_EQ(clusters[0], &inside);
}

}  // namespace
}  // namespace cube
}  // namespace atypical
