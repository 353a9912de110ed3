#include "cube/red_zone.h"

#include <algorithm>

#include "util/logging.h"

namespace atypical {
namespace cube {

std::vector<RegionId> ComputeRedZones(const RegionDayMeasure& measure,
                                      const std::vector<RegionId>& regions_in_w,
                                      const DayRange& days, double threshold) {
  std::vector<RegionId> red;
  for (RegionId region : regions_in_w) {
    double f = 0.0;
    for (int day = days.first_day; day <= days.last_day; ++day) {
      f += measure.RegionDaySeverity(region, day);
      if (f >= threshold) break;  // already qualifies
    }
    if (f >= threshold) red.push_back(region);
  }
  // Sorted output: FilterByRedZones tests membership by binary search, which
  // keeps the per-query filter free of hash-set construction (AL015).
  std::sort(red.begin(), red.end());
  return red;
}

std::vector<AtypicalCluster> FilterByRedZones(
    std::vector<AtypicalCluster> clusters,
    const std::vector<RegionId>& red_zones, const SpatialPartition& regions,
    RedZoneFilterMode mode) {
  DCHECK(std::is_sorted(red_zones.begin(), red_zones.end()));
  std::erase_if(clusters, [&](const AtypicalCluster& cluster) {
    int inside = 0;
    int total = 0;
    for (const FeatureVector::Entry& e : cluster.spatial.entries()) {
      ++total;
      if (std::binary_search(red_zones.begin(), red_zones.end(),
                             regions.RegionOfSensor(e.key))) {
        ++inside;
      }
    }
    const bool keep = mode == RedZoneFilterMode::kKeepIntersecting
                          ? inside > 0
                          : inside == total && total > 0;
    return !keep;
  });
  return clusters;
}

}  // namespace cube
}  // namespace atypical
