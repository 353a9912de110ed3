// Sensor placement along the highway map, plus the adjacency structure the
// congestion process uses to propagate events along a road.
//
// Sensors are fixed in their locations (as in the paper); the spatial
// coverage of an event is therefore a set of sensors, and the topology graph
// maps sensors to highways and regions.
#ifndef ATYPICAL_CPS_SENSOR_NETWORK_H_
#define ATYPICAL_CPS_SENSOR_NETWORK_H_

#include <cstdint>
#include <span>
#include <vector>

#include "cps/road_network.h"
#include "cps/types.h"
#include "util/hot_path.h"

namespace atypical {

// One fixed roadside sensor.
struct Sensor {
  SensorId id = kInvalidSensor;
  GeoPoint location;
  HighwayId highway = 0;
  double mile_post = 0.0;  // arc-length position along the highway
  // Neighbors along the same highway (kInvalidSensor at the ends).
  SensorId upstream = kInvalidSensor;
  SensorId downstream = kInvalidSensor;
};

struct SensorNetworkConfig {
  // Approximate total sensor count; actual count depends on highway lengths.
  int target_num_sensors = 400;
};

// Distance notion used by Def. 1's distance(sᵢ, sⱼ).
//
// Euclidean distance lets concurrent jams on crossing highways chain into
// one event at interchanges (how the paper's LA data yields very few, very
// large significant clusters); road-network distance confines events to a
// single highway.  The metric ablation quantifies the difference.
enum class DistanceMetric : uint8_t {
  kEuclidean,
  // |mile-post difference| on the same highway; +inf across highways.
  kRoadNetwork,
};

const char* DistanceMetricName(DistanceMetric metric);

// All sensors of the deployment plus lookup structures.
class SensorNetwork {
 public:
  // Places sensors at uniform spacing along every highway so that the total
  // is close to `config.target_num_sensors`.
  static SensorNetwork Place(const RoadNetwork& roads,
                             const SensorNetworkConfig& config);

  int num_sensors() const { return static_cast<int>(sensors_.size()); }
  int num_highways() const { return static_cast<int>(by_highway_.size()); }
  const std::vector<Sensor>& sensors() const { return sensors_; }
  const Sensor& sensor(SensorId id) const;
  const GeoPoint& location(SensorId id) const { return sensor(id).location; }

  double spacing_miles() const { return spacing_miles_; }
  GeoRect bounds() const { return bounds_; }

  // Sensors on the given highway ordered by mile post.
  const std::vector<SensorId>& SensorsOnHighway(HighwayId highway) const;

  // All sensors inside the rectangle (query region W).
  std::vector<SensorId> SensorsInRect(const GeoRect& rect) const;

  // The same set as a dense mask: `mask` (caller-owned, so serving loops
  // reuse its capacity) is overwritten with one byte per sensor, 1 inside
  // the rectangle.  Returns the number of sensors inside.
  ATYPICAL_HOT int MarkSensorsInRect(const GeoRect& rect,
                                     std::vector<uint8_t>* mask) const;

  // Distance between two sensors under `metric`.  Road-network distance
  // across different highways is +infinity (HUGE_VAL) — it always exceeds
  // any δd.  Note road distance >= Euclidean distance, so Euclidean-based
  // pruning stays exact for both metrics.
  double Distance(SensorId a, SensorId b, DistanceMetric metric) const;

 private:
  std::vector<Sensor> sensors_;
  std::vector<std::vector<SensorId>> by_highway_;
  double spacing_miles_ = 0.0;
  GeoRect bounds_;
};

// The spatial half of Def. 1 on a fixed deployment: for every sensor s, the
// sensors t != s with Distance(s, t, metric) < δd, ascending by id, in one
// CSR.  Sensors never move, so this is the whole spatial index Algorithm 1
// needs; it is built in O(S log S + S·k) by sorting sensors by x and
// filtering a δd-wide band, which is exact for both metrics because road
// distance >= Euclidean distance >= |Δx|.
class SensorNeighbors {
 public:
  SensorNeighbors(const SensorNetwork& network, double delta_d_miles,
                  DistanceMetric metric);

  std::span<const SensorId> Of(SensorId sensor) const {
    return {neighbors_.data() + offsets_[sensor],
            neighbors_.data() + offsets_[sensor + 1]};
  }

 private:
  std::vector<uint32_t> offsets_;  // num_sensors + 1 row starts
  std::vector<SensorId> neighbors_;
};

}  // namespace atypical

#endif  // ATYPICAL_CPS_SENSOR_NETWORK_H_
