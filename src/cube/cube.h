// The CubeView baseline of §II.A: bottom-up aggregation along the
// pre-defined hierarchies of cube/hierarchy.h.  It is the paper's OC/MC
// comparison point for Figs. 15/16 and nothing more — query guidance reads
// the region×day severity table in cube/measure.h instead.
//
// Two construction modes mirror the paper's baselines:
//   * FromReadings  — "original CubeView" (OC): aggregates every reading,
//     measure = record count + occupied minutes;
//   * FromAtypical  — "modified CubeView" (MC): aggregates only atypical
//     records, measure = total severity.
//
// Cells are materialized at every granularity in cube::CubeLevel, each
// level a hash map, so the baseline's build time and size are not
// understated.
#ifndef ATYPICAL_CUBE_CUBE_H_
#define ATYPICAL_CUBE_CUBE_H_

#include <unordered_map>
#include <vector>

#include "cps/dataset.h"
#include "cps/record.h"
#include "cps/region_grid.h"
#include "cube/hierarchy.h"
#include "cube/measure.h"

namespace atypical {
namespace cube {

// Aggregated measures of one cell.
struct CubeCell {
  double severity = 0.0;  // Σ atypical minutes (MC), 0 for normal readings
  int64_t count = 0;      // records aggregated
  double value_minutes = 0.0;  // OC only: Σ window minutes of traffic data
};

struct CubeBuildStats {
  double seconds = 0.0;
  int64_t records = 0;
  uint64_t num_cells = 0;
  uint64_t byte_size = 0;
};

class CubeView {
 public:
  // OC: aggregates every reading of `dataset` into the cube.
  static CubeView FromReadings(const Dataset& dataset,
                               const RegionGrid& regions);

  // MC: aggregates only atypical records.
  static CubeView FromAtypical(const std::vector<AtypicalRecord>& records,
                               const RegionGrid& regions,
                               const TimeGrid& grid);

  CubeView() = default;

  // Merges another cube built over the same regions/grid (used to accumulate
  // months).  Distributivity makes this exact.
  void MergeFrom(const CubeView& other);

  const CubeCell* Lookup(CubeLevel level, uint32_t space, int64_t time) const;

  uint64_t num_cells() const;
  uint64_t ByteSize() const;
  const CubeBuildStats& build_stats() const { return build_stats_; }

 private:
  static uint64_t CellKey(uint32_t space, int64_t time) {
    return (static_cast<uint64_t>(space) << 34) ^
           static_cast<uint64_t>(time & 0x3ffffffffLL);
  }

  void AddAtypical(const AtypicalRecord& r, const RegionGrid& regions,
                   const TimeGrid& grid);

  using LevelMap = std::unordered_map<uint64_t, CubeCell>;
  LevelMap levels_[kNumCubeLevels];
  CubeBuildStats build_stats_;
};

// Perfbench-only spelling: perfbench/pipeline_bench.cc still calls the
// serving measure by its old name.  Delete this with the next benchmark
// change; nothing else may use it.
using BottomUpCube = RegionDayMeasure;

}  // namespace cube
}  // namespace atypical

#endif  // ATYPICAL_CUBE_CUBE_H_
