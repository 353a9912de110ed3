#include "cube/red_zone.h"

#include <algorithm>

#include "util/logging.h"

namespace atypical {
namespace cube {

std::vector<RegionId> ComputeRedZones(const RegionDayMeasure& measure,
                                      const std::vector<RegionId>& regions_in_w,
                                      const DayRange& days, double threshold) {
  const DayRange stored = measure.StoredDays(days);
  std::vector<RegionId> red;
  for (RegionId region : regions_in_w) {
    double f = 0.0;
    for (int day = stored.first_day; day <= stored.last_day; ++day) {
      f += measure.RegionDaySeverity(region, day);
      if (f >= threshold) break;  // already qualifies
    }
    if (f >= threshold) red.push_back(region);
  }
  // Sorted output, whatever the order of `regions_in_w`.
  std::sort(red.begin(), red.end());
  return red;
}

void FilterBySensorMask(const std::vector<uint8_t>& mask,
                        RedZoneFilterMode mode,
                        std::vector<const AtypicalCluster*>* clusters) {
  const auto marked = [&](const FeatureVector::Entry& e) {
    return e.key < mask.size() && mask[e.key] != 0;
  };
  std::erase_if(*clusters, [&](const AtypicalCluster* cluster) {
    const std::vector<FeatureVector::Entry>& sf = cluster->spatial.entries();
    const bool keep = mode == RedZoneFilterMode::kKeepIntersecting
                          ? std::any_of(sf.begin(), sf.end(), marked)
                          : !sf.empty() && std::all_of(sf.begin(), sf.end(),
                                                       marked);
    return !keep;
  });
}

void FilterByRedZones(const std::vector<RegionId>& red_zones,
                      const RegionGrid& regions, RedZoneFilterMode mode,
                      std::vector<uint8_t>* in_red,
                      std::vector<const AtypicalCluster*>* clusters) {
  in_red->assign(static_cast<size_t>(regions.num_sensors()), 0);
  for (RegionId region : red_zones) {
    for (SensorId s : regions.SensorsInRegion(region)) (*in_red)[s] = 1;
  }
  FilterBySensorMask(*in_red, mode, clusters);
}

}  // namespace cube
}  // namespace atypical
