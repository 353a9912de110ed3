#include "cube/measure.h"

#include "util/logging.h"

namespace atypical {
namespace cube {

RegionDayMeasure RegionDayMeasure::FromAtypical(
    const std::vector<AtypicalRecord>& records, const RegionGrid& regions,
    const TimeGrid& grid) {
  std::vector<std::vector<double>> rows;
  const size_t num_regions = static_cast<size_t>(regions.num_regions());
  for (const AtypicalRecord& r : records) {
    const RegionId region = regions.RegionOfSensor(r.sensor);
    const int day = grid.DayOfWindow(r.window);
    CHECK_GE(day, 0);
    CHECK_LT(region, num_regions);
    const size_t d = static_cast<size_t>(day);
    if (d >= rows.size()) rows.resize(d + 1);
    std::vector<double>& row = rows[d];
    if (row.empty()) row.resize(num_regions, 0.0);
    row[region] += static_cast<double>(r.severity_minutes);
  }
  RegionDayMeasure measure;
  measure.days_.resize(rows.size());
  for (size_t d = 0; d < rows.size(); ++d) {
    if (rows[d].empty()) continue;
    measure.days_[d] =
        std::make_shared<const std::vector<double>>(std::move(rows[d]));
  }
  return measure;
}

void RegionDayMeasure::MergeFrom(const RegionDayMeasure& other) {
  if (other.days_.size() > days_.size()) days_.resize(other.days_.size());
  for (size_t day = 0; day < other.days_.size(); ++day) {
    const Row& theirs = other.days_[day];
    if (theirs == nullptr) continue;
    Row& mine = days_[day];
    std::vector<double> row = mine == nullptr ? std::vector<double>() : *mine;
    if (theirs->size() > row.size()) row.resize(theirs->size(), 0.0);
    for (size_t region = 0; region < theirs->size(); ++region) {
      row[region] += (*theirs)[region];
    }
    mine = std::make_shared<const std::vector<double>>(std::move(row));
  }
}

double RegionDayMeasure::F(const std::vector<RegionId>& regions,
                           const DayRange& days) const {
  const DayRange stored = StoredDays(days);
  double total = 0.0;
  for (RegionId region : regions) {
    for (int day = stored.first_day; day <= stored.last_day; ++day) {
      total += RegionDaySeverity(region, day);
    }
  }
  return total;
}

uint64_t RegionDayMeasure::ByteSize() const {
  uint64_t cells = 0;
  for (const Row& row : days_) cells += row == nullptr ? 0 : row->size();
  return cells * sizeof(double);
}

}  // namespace cube
}  // namespace atypical
