// Red-zone computation and micro-cluster filtering (Algorithm 4, lines 1–3).
//
// Property 5: for a region W' ⊆ W, if F(W', T) < δs·length(T)·N then no
// significant macro-cluster lies (entirely) within W'.  Regions at or above
// the threshold are "red zones"; micro-clusters that touch no red zone are
// pruned before integration.
//
// The guarantee degrades when an event's footprint is split across many
// regions that are each individually below the threshold — the trade-off
// the region-granularity ablation quantifies.
#ifndef ATYPICAL_CUBE_RED_ZONE_H_
#define ATYPICAL_CUBE_RED_ZONE_H_

#include <cstdint>
#include <vector>

#include "core/cluster.h"
#include "cps/region_grid.h"
#include "cube/measure.h"
#include "util/hot_path.h"

namespace atypical {
namespace cube {

// Regions among `regions_in_w` whose total severity over `days` reaches
// `threshold` (= δs·length(T)·N computed by the caller).
ATYPICAL_HOT std::vector<RegionId> ComputeRedZones(
    const RegionDayMeasure& measure,
    const std::vector<RegionId>& regions_in_w, const DayRange& days,
    double threshold);

enum class RedZoneFilterMode : uint8_t {
  // Keep a cluster if any of its sensors lies in a red zone (Example 7:
  // clusters intersecting the zones may contribute to significant
  // macro-clusters and must be kept).  Default.
  kKeepIntersecting,
  // Keep a cluster only if all of its sensors lie in red zones.  More
  // aggressive pruning; loses the no-false-negative property.  Exposed for
  // the ablation bench.
  kKeepContained,
};

// Erases from `clusters`, in place and in order, every cluster that fails
// `mode` against `mask` (one byte per sensor; a sensor beyond the mask
// counts as unmarked).  Clusters pass whole — features are never trimmed,
// so survivors' severities stay exact.  The query's area filter is this
// with the sensors of W and kKeepIntersecting.
ATYPICAL_HOT void FilterBySensorMask(
    const std::vector<uint8_t>& mask, RedZoneFilterMode mode,
    std::vector<const AtypicalCluster*>* clusters);

// The red-zone filter: marks the sensors of `red_zones` in `in_red`
// (caller-owned scratch, overwritten with one byte per sensor of
// `regions`), then FilterBySensorMask(*in_red, mode, clusters).
ATYPICAL_HOT void FilterByRedZones(
    const std::vector<RegionId>& red_zones, const RegionGrid& regions,
    RedZoneFilterMode mode, std::vector<uint8_t>* in_red,
    std::vector<const AtypicalCluster*>* clusters);

}  // namespace cube
}  // namespace atypical

#endif  // ATYPICAL_CUBE_RED_ZONE_H_
