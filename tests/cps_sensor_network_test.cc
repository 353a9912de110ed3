#include "cps/sensor_network.h"

#include <algorithm>
#include <span>
#include <vector>

#include <gtest/gtest.h>

namespace atypical {
namespace {

RoadNetwork MakeRoads() {
  RoadNetworkConfig config;
  config.num_highways = 8;
  config.area_width_miles = 20.0;
  config.area_height_miles = 15.0;
  config.seed = 3;
  return RoadNetwork::Generate(config);
}

SensorNetwork MakeSensors(const RoadNetwork& roads, int target = 150) {
  SensorNetworkConfig config;
  config.target_num_sensors = target;
  return SensorNetwork::Place(roads, config);
}

TEST(SensorNetworkTest, PlacesApproximatelyTargetCount) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads, 150);
  EXPECT_GE(net.num_sensors(), 120);
  EXPECT_LE(net.num_sensors(), 180);
}

TEST(SensorNetworkTest, IdsAreDense) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  for (int i = 0; i < net.num_sensors(); ++i) {
    EXPECT_EQ(net.sensor(i).id, static_cast<SensorId>(i));
  }
}

TEST(SensorNetworkTest, EverySensorSitsOnItsHighway) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  for (const Sensor& s : net.sensors()) {
    const Highway& hw = roads.highway(s.highway);
    const GeoPoint expected = hw.PointAtMile(s.mile_post);
    EXPECT_LT(DistanceMiles(s.location, expected), 1e-9);
  }
}

TEST(SensorNetworkTest, HighwayListsOrderedByMilePost) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  for (int h = 0; h < net.num_highways(); ++h) {
    const std::vector<SensorId>& line = net.SensorsOnHighway(h);
    for (size_t i = 1; i < line.size(); ++i) {
      EXPECT_LT(net.sensor(line[i - 1]).mile_post,
                net.sensor(line[i]).mile_post);
      EXPECT_EQ(net.sensor(line[i]).highway, static_cast<HighwayId>(h));
    }
  }
}

TEST(SensorNetworkTest, NeighborLinksAreConsistent) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  for (int h = 0; h < net.num_highways(); ++h) {
    const std::vector<SensorId>& line = net.SensorsOnHighway(h);
    if (line.empty()) continue;
    EXPECT_EQ(net.sensor(line.front()).upstream, kInvalidSensor);
    EXPECT_EQ(net.sensor(line.back()).downstream, kInvalidSensor);
    for (size_t i = 1; i < line.size(); ++i) {
      EXPECT_EQ(net.sensor(line[i]).upstream, line[i - 1]);
      EXPECT_EQ(net.sensor(line[i - 1]).downstream, line[i]);
    }
  }
}

TEST(SensorNetworkTest, SpacingIsRoughlyUniform) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  const double spacing = net.spacing_miles();
  EXPECT_GT(spacing, 0.0);
  for (int h = 0; h < net.num_highways(); ++h) {
    const std::vector<SensorId>& line = net.SensorsOnHighway(h);
    for (size_t i = 1; i < line.size(); ++i) {
      const double gap = net.sensor(line[i]).mile_post -
                         net.sensor(line[i - 1]).mile_post;
      EXPECT_GT(gap, 0.25 * spacing);
      EXPECT_LT(gap, 2.5 * spacing);
    }
  }
}

// SensorNeighbors must list exactly the sensors t != s with
// Distance(s, t) < δd, ascending — checked against all pairs.
void ExpectNeighborsMatchAllPairs(const SensorNetwork& net, double delta_d,
                                  DistanceMetric metric) {
  const SensorNeighbors neighbors(net, delta_d, metric);
  for (SensorId s = 0; s < static_cast<SensorId>(net.num_sensors()); ++s) {
    std::vector<SensorId> expected;
    for (SensorId t = 0; t < static_cast<SensorId>(net.num_sensors()); ++t) {
      if (t != s && net.Distance(s, t, metric) < delta_d) expected.push_back(t);
    }
    const std::span<const SensorId> listed = neighbors.Of(s);
    EXPECT_EQ(std::vector<SensorId>(listed.begin(), listed.end()), expected)
        << DistanceMetricName(metric) << " δd=" << delta_d << " sensor " << s;
  }
}

TEST(SensorNeighborsTest, MatchesAllPairsDistance) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  ASSERT_GE(net.SensorsOnHighway(0).size(), 2u);
  const SensorId a = net.SensorsOnHighway(0)[0];
  const SensorId b = net.SensorsOnHighway(0)[1];
  for (const DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kRoadNetwork}) {
    // Exactly a pair's distance and exactly the nominal spacing put sensor
    // pairs on the strict `<` boundary.
    const double exact_pair = net.Distance(a, b, metric);
    for (const double delta_d : {0.3, net.spacing_miles(), exact_pair, 1.5,
                                 4.0, 40.0}) {
      ExpectNeighborsMatchAllPairs(net, delta_d, metric);
    }
    const SensorNeighbors at_pair(net, exact_pair, metric);
    const std::span<const SensorId> of_a = at_pair.Of(a);
    EXPECT_EQ(std::count(of_a.begin(), of_a.end(), b), 0)
        << DistanceMetricName(metric) << ": a pair at exactly δd is unrelated";
  }
}

TEST(SensorNeighborsDeathTest, RejectsNonPositiveDeltaD) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  EXPECT_DEATH(SensorNeighbors(net, 0.0, DistanceMetric::kEuclidean),
               "Check failed");
}

TEST(SensorNetworkTest, SensorsInRectMatchesBruteForce) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  const GeoRect rect{5.0, 3.0, 15.0, 12.0};
  const std::vector<SensorId> inside = net.SensorsInRect(rect);
  for (const Sensor& s : net.sensors()) {
    const bool in_rect = rect.Contains(s.location);
    const bool listed =
        std::find(inside.begin(), inside.end(), s.id) != inside.end();
    EXPECT_EQ(in_rect, listed) << "sensor " << s.id;
  }
}

TEST(SensorNetworkTest, WholeBoundsRectContainsAllSensors) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  EXPECT_EQ(net.SensorsInRect(net.bounds()).size(),
            static_cast<size_t>(net.num_sensors()));
}

TEST(SensorNetworkDeathTest, OutOfRangeSensorDies) {
  const RoadNetwork roads = MakeRoads();
  const SensorNetwork net = MakeSensors(roads);
  EXPECT_DEATH((void)net.sensor(net.num_sensors()), "Check failed");
}

}  // namespace
}  // namespace atypical
