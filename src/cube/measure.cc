#include "cube/measure.h"

#include "util/logging.h"

namespace atypical {
namespace cube {

RegionDayMeasure RegionDayMeasure::FromAtypical(
    const std::vector<AtypicalRecord>& records, const SpatialPartition& regions,
    const TimeGrid& grid) {
  RegionDayMeasure measure;
  const size_t num_regions = static_cast<size_t>(regions.num_regions());
  for (const AtypicalRecord& r : records) {
    const RegionId region = regions.RegionOfSensor(r.sensor);
    const int day = grid.DayOfWindow(r.window);
    CHECK_GE(day, 0);
    CHECK_LT(region, num_regions);
    const size_t d = static_cast<size_t>(day);
    if (d >= measure.days_.size()) measure.days_.resize(d + 1);
    std::vector<double>& row = measure.days_[d];
    if (row.empty()) row.resize(num_regions, 0.0);
    row[region] += static_cast<double>(r.severity_minutes);
  }
  return measure;
}

void RegionDayMeasure::MergeFrom(const RegionDayMeasure& other) {
  if (other.days_.size() > days_.size()) days_.resize(other.days_.size());
  for (size_t day = 0; day < other.days_.size(); ++day) {
    const std::vector<double>& theirs = other.days_[day];
    std::vector<double>& mine = days_[day];
    if (theirs.size() > mine.size()) mine.resize(theirs.size(), 0.0);
    for (size_t region = 0; region < theirs.size(); ++region) {
      mine[region] += theirs[region];
    }
  }
}

double RegionDayMeasure::F(const std::vector<RegionId>& regions,
                           const DayRange& days) const {
  double total = 0.0;
  for (RegionId region : regions) {
    for (int day = days.first_day; day <= days.last_day; ++day) {
      total += RegionDaySeverity(region, day);
    }
  }
  return total;
}

uint64_t RegionDayMeasure::ByteSize() const {
  uint64_t cells = 0;
  for (const std::vector<double>& row : days_) cells += row.size();
  return cells * sizeof(double);
}

}  // namespace cube
}  // namespace atypical
