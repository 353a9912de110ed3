#include "index/rtree.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "cube/measure.h"
#include "gen/workload.h"
#include "util/random.h"

namespace atypical {
namespace index {
namespace {

class RTreeTest : public ::testing::Test {
 protected:
  RTreeTest() : workload_(MakeWorkload(WorkloadScale::kSmall, 81)) {}

  const SensorNetwork& network() { return *workload_->sensors; }
  std::unique_ptr<Workload> workload_;
};

TEST_F(RTreeTest, QueryMatchesLinearScan) {
  const SensorRTree tree(network());
  Rng rng(5);
  const GeoRect bounds = network().bounds();
  for (int trial = 0; trial < 50; ++trial) {
    const double x0 = rng.Uniform(bounds.min_x, bounds.max_x);
    const double y0 = rng.Uniform(bounds.min_y, bounds.max_y);
    const double x1 = rng.Uniform(x0, bounds.max_x);
    const double y1 = rng.Uniform(y0, bounds.max_y);
    const GeoRect rect{x0, y0, x1, y1};
    std::vector<SensorId> expected = network().SensorsInRect(rect);
    std::sort(expected.begin(), expected.end());
    EXPECT_EQ(tree.Query(rect), expected) << "trial " << trial;
  }
}

TEST_F(RTreeTest, WholeBoundsReturnsEverything) {
  const SensorRTree tree(network());
  EXPECT_EQ(tree.Query(network().bounds()).size(),
            static_cast<size_t>(network().num_sensors()));
}

TEST_F(RTreeTest, EmptyRectReturnsNothing) {
  const SensorRTree tree(network());
  EXPECT_TRUE(tree.Query({-100.0, -100.0, -99.0, -99.0}).empty());
}

TEST_F(RTreeTest, LeavesPartitionTheSensors) {
  const SensorRTree tree(network(), /*leaf_capacity=*/16);
  std::set<SensorId> seen;
  for (int leaf = 0; leaf < tree.num_leaves(); ++leaf) {
    const GeoRect mbr = tree.LeafRect(leaf);
    for (SensorId s : tree.LeafSensors(leaf)) {
      EXPECT_TRUE(seen.insert(s).second) << "sensor in two leaves";
      EXPECT_EQ(tree.LeafOfSensor(s), leaf);
      EXPECT_TRUE(mbr.Contains(network().location(s)));
    }
    EXPECT_LE(tree.LeafSensors(leaf).size(), 16u);
  }
  EXPECT_EQ(seen.size(), static_cast<size_t>(network().num_sensors()));
}

TEST_F(RTreeTest, LeafCountMatchesCapacity) {
  const SensorRTree tree(network(), /*leaf_capacity=*/16);
  const int n = network().num_sensors();
  EXPECT_GE(tree.num_leaves(), (n + 15) / 16);
  EXPECT_LE(tree.num_leaves(), n / 8 + 4);  // slices may leave ragged tails
  EXPECT_GE(tree.height(), 2);
}

TEST_F(RTreeTest, LeavesInRectCoversAllMatchingSensors) {
  const SensorRTree tree(network());
  Rng rng(9);
  const GeoRect bounds = network().bounds();
  for (int trial = 0; trial < 20; ++trial) {
    const double x0 = rng.Uniform(bounds.min_x, bounds.max_x);
    const double y0 = rng.Uniform(bounds.min_y, bounds.max_y);
    const GeoRect rect{x0, y0, std::min(bounds.max_x, x0 + 8.0),
                       std::min(bounds.max_y, y0 + 6.0)};
    const std::vector<int> leaves = tree.LeavesInRect(rect);
    const std::set<int> leaf_set(leaves.begin(), leaves.end());
    for (SensorId s : network().SensorsInRect(rect)) {
      EXPECT_TRUE(leaf_set.contains(tree.LeafOfSensor(s)))
          << "sensor " << s << " trial " << trial;
    }
  }
}

TEST_F(RTreeTest, SingleSensorNetworkWorks) {
  RoadNetworkConfig roads;
  roads.num_highways = 1;
  roads.area_width_miles = 2.0;
  roads.area_height_miles = 2.0;
  const RoadNetwork net = RoadNetwork::Generate(roads);
  SensorNetworkConfig config;
  config.target_num_sensors = 1;
  const SensorNetwork sensors = SensorNetwork::Place(net, config);
  const SensorRTree tree(sensors);
  EXPECT_EQ(tree.num_leaves(), 1);
  EXPECT_EQ(tree.Query(sensors.bounds()).size(),
            static_cast<size_t>(sensors.num_sensors()));
}

TEST_F(RTreeTest, PartitionInterfaceContract) {
  const RTreeLeafPartition partition(network(), 16);
  EXPECT_EQ(partition.num_regions(), partition.tree().num_leaves());
  EXPECT_EQ(partition.Name(), "rtree-leaves-16");
  int total = 0;
  for (RegionId r = 0; r < static_cast<RegionId>(partition.num_regions());
       ++r) {
    for (SensorId s : partition.SensorsInRegion(r)) {
      EXPECT_EQ(partition.RegionOfSensor(s), r);
      ++total;
    }
  }
  EXPECT_EQ(total, network().num_sensors());
  EXPECT_EQ(partition.RegionsInRect(network().bounds()).size(),
            static_cast<size_t>(partition.num_regions()));
}

TEST_F(RTreeTest, PartitionDrivesTheCubeAndRedZones) {
  // The R-tree partition plugs into the bottom-up cube exactly like the
  // grid: total severity is conserved regardless of the scheme.
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  const TimeGrid grid = workload_->gen_config.time_grid;
  const RTreeLeafPartition partition(network(), 16);
  const cube::RegionDayMeasure severity_cube =
      cube::RegionDayMeasure::FromAtypical(records, partition, grid);
  double total = 0.0;
  for (const AtypicalRecord& r : records)
    total += static_cast<double>(r.severity_minutes);
  std::vector<RegionId> all;
  for (RegionId r = 0; r < static_cast<RegionId>(partition.num_regions());
       ++r) {
    all.push_back(r);
  }
  EXPECT_NEAR(severity_cube.F(all, DayRange{0, 27}), total, 1e-3);
}

TEST_F(RTreeTest, AdaptsToSensorDensity) {
  // Leaf rectangles in dense areas are smaller than the uniform grid cell.
  const RTreeLeafPartition partition(network(), 16);
  double min_area = 1e18;
  double max_area = 0.0;
  for (int leaf = 0; leaf < partition.tree().num_leaves(); ++leaf) {
    const GeoRect r = partition.tree().LeafRect(leaf);
    const double area = std::max(1e-6, r.Width() * r.Height());
    min_area = std::min(min_area, area);
    max_area = std::max(max_area, area);
  }
  EXPECT_GT(max_area / min_area, 3.0)
      << "leaf sizes should vary with density";
}

}  // namespace
}  // namespace index
}  // namespace atypical
