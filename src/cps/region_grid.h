// Pre-defined spatial partition of the map, standing in for the paper's
// zipcode areas.
//
// The bottom-up baseline (CubeView) and the red-zone computation (Algorithm
// 4) both aggregate severities per pre-defined region.  The paper notes that
// zipcode areas, street segments, highway mileages and R-tree rectangles are
// all used in practice; a uniform grid is the simplest such fixed partition
// and exposes the same behaviour (events do not follow region boundaries).
#ifndef ATYPICAL_CPS_REGION_GRID_H_
#define ATYPICAL_CPS_REGION_GRID_H_

#include <vector>

#include "cps/sensor_network.h"
#include "cps/types.h"

namespace atypical {

// Uniform rectangular partition of the sensor deployment area.
class RegionGrid {
 public:
  // Partitions `network.bounds()` into cells of roughly `cell_miles` on a
  // side and assigns every sensor to its cell.
  RegionGrid(const SensorNetwork& network, double cell_miles);

  int num_regions() const { return cols_ * rows_; }
  int num_sensors() const { return static_cast<int>(region_of_sensor_.size()); }
  int cols() const { return cols_; }
  int rows() const { return rows_; }
  double cell_miles() const { return cell_miles_; }

  RegionId RegionOfSensor(SensorId sensor) const;
  RegionId RegionOfPoint(const GeoPoint& p) const;

  // Sensors assigned to `region` (empty for regions with no sensors).
  const std::vector<SensorId>& SensorsInRegion(RegionId region) const;

  int SensorCount(RegionId region) const {
    return static_cast<int>(SensorsInRegion(region).size());
  }

  // Bounding rectangle of a region cell.
  GeoRect RegionRect(RegionId region) const;

  // Regions overlapping the given rectangle.
  std::vector<RegionId> RegionsInRect(const GeoRect& rect) const;

 private:
  double origin_x_;
  double origin_y_;
  double cell_miles_;
  int cols_;
  int rows_;
  std::vector<RegionId> region_of_sensor_;
  std::vector<std::vector<SensorId>> sensors_in_region_;
};

}  // namespace atypical

#endif  // ATYPICAL_CPS_REGION_GRID_H_
