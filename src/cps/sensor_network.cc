#include "cps/sensor_network.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/logging.h"

namespace atypical {

const char* DistanceMetricName(DistanceMetric metric) {
  switch (metric) {
    case DistanceMetric::kEuclidean:
      return "euclidean";
    case DistanceMetric::kRoadNetwork:
      return "road";
  }
  return "unknown";
}

SensorNetwork SensorNetwork::Place(const RoadNetwork& roads,
                                   const SensorNetworkConfig& config) {
  CHECK_GT(config.target_num_sensors, 0);
  CHECK(!roads.highways().empty());

  SensorNetwork network;
  network.bounds_ = roads.bounds();
  network.spacing_miles_ =
      roads.total_length_miles() / config.target_num_sensors;
  CHECK_GT(network.spacing_miles_, 0.0);

  network.by_highway_.resize(roads.highways().size());
  for (const Highway& hw : roads.highways()) {
    // One sensor every `spacing` miles, centered within the highway so both
    // ends get similar coverage.
    const int count =
        std::max(1, static_cast<int>(hw.length_miles / network.spacing_miles_));
    const double step = hw.length_miles / count;
    SensorId prev = kInvalidSensor;
    for (int i = 0; i < count; ++i) {
      const double mile = (i + 0.5) * step;
      Sensor s;
      s.id = static_cast<SensorId>(network.sensors_.size());
      s.location = hw.PointAtMile(mile);
      s.highway = hw.id;
      s.mile_post = mile;
      s.upstream = prev;
      if (prev != kInvalidSensor) network.sensors_[prev].downstream = s.id;
      prev = s.id;
      network.by_highway_[hw.id].push_back(s.id);
      network.sensors_.push_back(s);
    }
  }
  return network;
}

const Sensor& SensorNetwork::sensor(SensorId id) const {
  CHECK_LT(static_cast<size_t>(id), sensors_.size());
  return sensors_[id];
}

const std::vector<SensorId>& SensorNetwork::SensorsOnHighway(
    HighwayId highway) const {
  CHECK_LT(static_cast<size_t>(highway), by_highway_.size());
  return by_highway_[highway];
}

double SensorNetwork::Distance(SensorId a, SensorId b,
                               DistanceMetric metric) const {
  const Sensor& sa = sensor(a);
  const Sensor& sb = sensor(b);
  switch (metric) {
    case DistanceMetric::kEuclidean:
      return DistanceMiles(sa.location, sb.location);
    case DistanceMetric::kRoadNetwork:
      if (sa.highway != sb.highway) return HUGE_VAL;
      return std::abs(sa.mile_post - sb.mile_post);
  }
  LOG(FATAL) << "unknown DistanceMetric";
  return HUGE_VAL;
}

std::vector<SensorId> SensorNetwork::SensorsInRect(const GeoRect& rect) const {
  std::vector<SensorId> out;
  // sensors_ is ordered by id (Place assigns ids sequentially), so the
  // output is sorted without an explicit sort.
  for (const Sensor& s : sensors_) {
    if (rect.Contains(s.location)) out.push_back(s.id);
  }
  return out;
}

int SensorNetwork::MarkSensorsInRect(const GeoRect& rect,
                                     std::vector<uint8_t>* mask) const {
  mask->resize(sensors_.size());
  int inside = 0;
  for (const Sensor& s : sensors_) {
    (*mask)[s.id] = rect.Contains(s.location) ? 1 : 0;
    inside += (*mask)[s.id];
  }
  return inside;
}

SensorNeighbors::SensorNeighbors(const SensorNetwork& network,
                                 double delta_d_miles, DistanceMetric metric) {
  CHECK_GT(delta_d_miles, 0.0);
  const int num_sensors = network.num_sensors();
  std::vector<SensorId> by_x(num_sensors);
  std::iota(by_x.begin(), by_x.end(), SensorId{0});
  std::sort(by_x.begin(), by_x.end(), [&](SensorId a, SensorId b) {
    return network.location(a).x < network.location(b).x;
  });
  // The band is widened by a hair so that rounding in a road distance (>=
  // Euclidean only in exact arithmetic) can never drop a pair.
  const double band = delta_d_miles + 1e-9;
  std::vector<std::vector<SensorId>> rows(num_sensors);
  for (size_t i = 0; i < by_x.size(); ++i) {
    const double x = network.location(by_x[i]).x;
    for (size_t j = i + 1; j < by_x.size(); ++j) {
      if (network.location(by_x[j]).x - x > band) break;
      if (network.Distance(by_x[i], by_x[j], metric) < delta_d_miles) {
        rows[by_x[i]].push_back(by_x[j]);
        rows[by_x[j]].push_back(by_x[i]);
      }
    }
  }
  offsets_.reserve(num_sensors + 1);
  offsets_.push_back(0);
  for (std::vector<SensorId>& row : rows) {
    std::sort(row.begin(), row.end());
    neighbors_.insert(neighbors_.end(), row.begin(), row.end());
    offsets_.push_back(static_cast<uint32_t>(neighbors_.size()));
  }
}

}  // namespace atypical
