// Literal reference for QueryEngine::Run's prepare phase, as it stood
// before prepare moved to pointers: every in-range micro is copied and
// re-keyed to time-of-day first, and the area, Pru and Gui filters then
// drop copies by value.  The survivors go to IntegrateClusters with a
// kQueryMacroIdBase generator, exactly as Run() does.  Tests check Run()
// against it bit for bit; nothing in src/ uses it.
#ifndef ATYPICAL_TESTS_QUERY_REFERENCE_H_
#define ATYPICAL_TESTS_QUERY_REFERENCE_H_

#include <algorithm>
#include <utility>
#include <vector>

#include "core/query.h"
#include "core/temporal_key.h"

namespace atypical {
namespace reference {

struct QueryAnswer {
  std::vector<AtypicalCluster> clusters;
  double threshold = 0.0;
  size_t input_micro_clusters = 0;
  size_t micro_clusters_in_range = 0;
  size_t red_zones = 0;
  size_t regions_checked = 0;
};

inline bool TouchesArea(const AtypicalCluster& c,
                        const std::vector<SensorId>& sorted_in_w) {
  for (const FeatureVector::Entry& e : c.spatial.entries()) {
    if (std::binary_search(sorted_in_w.begin(), sorted_in_w.end(), e.key)) {
      return true;
    }
  }
  return false;
}

// The by-value red-zone filter: a sensor is red if its region is among
// the sorted `red_zones`.
inline std::vector<AtypicalCluster> FilterByRedZones(
    std::vector<AtypicalCluster> clusters,
    const std::vector<RegionId>& red_zones, const RegionGrid& regions,
    cube::RedZoneFilterMode mode) {
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
    const bool keep = mode == cube::RedZoneFilterMode::kKeepIntersecting
                          ? inside > 0
                          : inside == total && total > 0;
    return !keep;
  });
  return clusters;
}

// Q(W, T) under `strategy`: copy everything in range, then filter.
inline QueryAnswer RunQuery(const SensorNetwork& network,
                            const RegionGrid& regions,
                            const AtypicalForest& forest,
                            const cube::RegionDayMeasure& measure,
                            const QueryEngineOptions& options,
                            const AnalyticalQuery& query,
                            QueryStrategy strategy) {
  QueryAnswer answer;
  if (query.days.NumDays() <= 0) return answer;
  const std::vector<SensorId> in_w = network.SensorsInRect(query.area);
  answer.threshold = SignificanceThreshold(
      options.significance, query.days, static_cast<int>(in_w.size()));

  std::vector<AtypicalCluster> micros;
  for (const AtypicalCluster* micro : forest.MicrosInRange(query.days)) {
    ++answer.micro_clusters_in_range;
    micros.push_back(WithTemporalKeyMode(*micro, forest.time_grid(),
                                         TemporalKeyMode::kTimeOfDay));
  }
  std::erase_if(micros, [&](const AtypicalCluster& c) {
    return !TouchesArea(c, in_w);
  });

  if (strategy == QueryStrategy::kPrune) {
    std::erase_if(micros, [&](const AtypicalCluster& m) {
      return !IsSignificant(m, answer.threshold);
    });
  } else if (strategy == QueryStrategy::kGuided) {
    const std::vector<RegionId> regions_in_w = regions.RegionsInRect(query.area);
    answer.regions_checked = regions_in_w.size();
    const std::vector<RegionId> red = cube::ComputeRedZones(
        measure, regions_in_w, query.days, answer.threshold);
    answer.red_zones = red.size();
    micros = FilterByRedZones(std::move(micros), red, regions,
                              options.red_zone_mode);
  }

  answer.input_micro_clusters = micros.size();
  ClusterIdGenerator result_ids(kQueryMacroIdBase);
  answer.clusters =
      IntegrateClusters(std::move(micros), options.integration, &result_ids);
  if (options.post_check_significance) {
    std::erase_if(answer.clusters, [&](const AtypicalCluster& c) {
      return !IsSignificant(c, answer.threshold);
    });
  }
  return answer;
}

}  // namespace reference
}  // namespace atypical

#endif  // ATYPICAL_TESTS_QUERY_REFERENCE_H_
