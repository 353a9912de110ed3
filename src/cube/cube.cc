#include "cube/cube.h"

#include "util/hash_perturb.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace atypical {
namespace cube {

void CubeView::AddAtypical(const AtypicalRecord& r,
                           const RegionGrid& regions,
                           const TimeGrid& grid) {
  const RegionId region = regions.RegionOfSensor(r.sensor);
  const int day = grid.DayOfWindow(r.window);
  const double severity = r.severity_minutes;

  auto bump = [&](CubeLevel level, uint32_t space, int64_t time) {
    CubeCell& cell = levels_[static_cast<int>(level)][CellKey(space, time)];
    cell.severity += severity;
    cell.count += 1;
  };
  bump(CubeLevel::kRegionHour, region, HourOfWindow(r.window, grid));
  bump(CubeLevel::kSensorDay, r.sensor, day);
  bump(CubeLevel::kRegionDay, region, day);
  bump(CubeLevel::kRegionWeek, region, WeekOfDay(day));
}

CubeView CubeView::FromReadings(const Dataset& dataset,
                                const RegionGrid& regions) {
  Stopwatch timer;
  CubeView cube;
  for (LevelMap& level : cube.levels_) {
    PerturbedReserve(level, dataset.readings().size() / 4 + 8);
  }
  const TimeGrid& grid = dataset.meta().time_grid;
  const double window_minutes = grid.window_minutes();
  for (const Reading& r : dataset.readings()) {
    const RegionId region = regions.RegionOfSensor(r.sensor);
    const int day = grid.DayOfWindow(r.window);
    auto bump = [&](CubeLevel level, uint32_t space, int64_t time) {
      CubeCell& cell =
          cube.levels_[static_cast<int>(level)][CellKey(space, time)];
      cell.severity += static_cast<double>(r.atypical_minutes);
      cell.count += 1;
      cell.value_minutes += window_minutes;
    };
    bump(CubeLevel::kRegionHour, region, HourOfWindow(r.window, grid));
    bump(CubeLevel::kSensorDay, r.sensor, day);
    bump(CubeLevel::kRegionDay, region, day);
    bump(CubeLevel::kRegionWeek, region, WeekOfDay(day));
  }
  cube.build_stats_.seconds = timer.ElapsedSeconds();
  cube.build_stats_.records = dataset.num_readings();
  cube.build_stats_.num_cells = cube.num_cells();
  cube.build_stats_.byte_size = cube.ByteSize();
  return cube;
}

CubeView CubeView::FromAtypical(
    const std::vector<AtypicalRecord>& records, const RegionGrid& regions,
    const TimeGrid& grid) {
  Stopwatch timer;
  CubeView cube;
  for (LevelMap& level : cube.levels_) {
    PerturbedReserve(level, records.size() / 4 + 8);
  }
  for (const AtypicalRecord& r : records) {
    cube.AddAtypical(r, regions, grid);
  }
  cube.build_stats_.seconds = timer.ElapsedSeconds();
  cube.build_stats_.records = static_cast<int64_t>(records.size());
  cube.build_stats_.num_cells = cube.num_cells();
  cube.build_stats_.byte_size = cube.ByteSize();
  return cube;
}

void CubeView::MergeFrom(const CubeView& other) {
  for (int level = 0; level < kNumCubeLevels; ++level) {
    // Per-key merge: each source key is visited exactly once and folded into
    // its own destination cell, so visitation order cannot change any sum.
    // NOLINTNEXTLINE(AL009): += over distinct keys commutes; order-free
    for (const auto& [key, cell] : other.levels_[level]) {
      CubeCell& mine = levels_[level][key];
      mine.severity += cell.severity;
      mine.count += cell.count;
      mine.value_minutes += cell.value_minutes;
    }
  }
  build_stats_.seconds += other.build_stats_.seconds;
  build_stats_.records += other.build_stats_.records;
  build_stats_.num_cells = num_cells();
  build_stats_.byte_size = ByteSize();
}

const CubeCell* CubeView::Lookup(CubeLevel level, uint32_t space,
                                 int64_t time) const {
  const LevelMap& map = levels_[static_cast<int>(level)];
  const auto it = map.find(CellKey(space, time));
  return it == map.end() ? nullptr : &it->second;
}

uint64_t CubeView::num_cells() const {
  uint64_t cells = 0;
  for (const LevelMap& map : levels_) cells += map.size();
  return cells;
}

uint64_t CubeView::ByteSize() const {
  // Hash-map overhead is implementation-defined; report the payload a
  // compact serialization would need: key + cell per cell.
  return num_cells() * (sizeof(uint64_t) + sizeof(CubeCell));
}

}  // namespace cube
}  // namespace atypical
