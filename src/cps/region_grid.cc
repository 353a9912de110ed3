#include "cps/region_grid.h"

#include <algorithm>
#include <cmath>

#include "util/logging.h"

namespace atypical {

RegionGrid::RegionGrid(const SensorNetwork& network, double cell_miles) {
  CHECK_GT(cell_miles, 0.0);
  const GeoRect bounds = network.bounds();
  origin_x_ = bounds.min_x;
  origin_y_ = bounds.min_y;
  cell_miles_ = cell_miles;
  cols_ = std::max(1, static_cast<int>(std::ceil(bounds.Width() / cell_miles)));
  rows_ = std::max(1, static_cast<int>(std::ceil(bounds.Height() / cell_miles)));

  region_of_sensor_.resize(network.num_sensors(), kInvalidRegion);
  sensors_in_region_.resize(static_cast<size_t>(cols_) * rows_);
  for (const Sensor& s : network.sensors()) {
    const RegionId r = RegionOfPoint(s.location);
    region_of_sensor_[s.id] = r;
    sensors_in_region_[r].push_back(s.id);
  }
}

RegionId RegionGrid::RegionOfSensor(SensorId sensor) const {
  CHECK_LT(static_cast<size_t>(sensor), region_of_sensor_.size());
  return region_of_sensor_[sensor];
}

RegionId RegionGrid::RegionOfPoint(const GeoPoint& p) const {
  int cx = static_cast<int>((p.x - origin_x_) / cell_miles_);
  int cy = static_cast<int>((p.y - origin_y_) / cell_miles_);
  cx = std::clamp(cx, 0, cols_ - 1);
  cy = std::clamp(cy, 0, rows_ - 1);
  return static_cast<RegionId>(cy) * cols_ + cx;
}

const std::vector<SensorId>& RegionGrid::SensorsInRegion(
    RegionId region) const {
  CHECK_LT(static_cast<size_t>(region), sensors_in_region_.size());
  return sensors_in_region_[region];
}

GeoRect RegionGrid::RegionRect(RegionId region) const {
  CHECK_LT(static_cast<size_t>(region), sensors_in_region_.size());
  const int cy = static_cast<int>(region) / cols_;
  const int cx = static_cast<int>(region) % cols_;
  return GeoRect{origin_x_ + cx * cell_miles_, origin_y_ + cy * cell_miles_,
                 origin_x_ + (cx + 1) * cell_miles_,
                 origin_y_ + (cy + 1) * cell_miles_};
}

std::vector<RegionId> RegionGrid::RegionsInRect(const GeoRect& rect) const {
  const int cx0 = std::clamp(
      static_cast<int>((rect.min_x - origin_x_) / cell_miles_), 0, cols_ - 1);
  const int cx1 = std::clamp(
      static_cast<int>((rect.max_x - origin_x_) / cell_miles_), 0, cols_ - 1);
  const int cy0 = std::clamp(
      static_cast<int>((rect.min_y - origin_y_) / cell_miles_), 0, rows_ - 1);
  const int cy1 = std::clamp(
      static_cast<int>((rect.max_y - origin_y_) / cell_miles_), 0, rows_ - 1);
  std::vector<RegionId> out;
  out.reserve(static_cast<size_t>(cx1 - cx0 + 1) * (cy1 - cy0 + 1));
  for (int cy = cy0; cy <= cy1; ++cy) {
    for (int cx = cx0; cx <= cx1; ++cx) {
      out.push_back(static_cast<RegionId>(cy) * cols_ + cx);
    }
  }
  return out;
}

}  // namespace atypical
