// The measure Algorithm 4 reads: total severity per (region, day) cell.
//
// Red-zone guidance needs exactly one aggregate, F(W', T), and by
// Property 4 total severity is distributive, so F over any region set and
// day range is the sum of its region×day cells.  RegionDayMeasure stores
// those cells densely — one region-indexed row per day — so F and
// RegionDaySeverity are array reads.  Rows are immutable and shared: a
// MergeFrom swaps in new rows for the days it touches, copy-on-write, so a
// copy of the measure (an epoch's, DESIGN §16) copies only row pointers.
//
// Reads are total: a (region, day) outside the stored rows reads 0.0, which
// covers days before the first ingest, future days and regions past a row's
// length.  Days with no atypical record keep a null (empty) row.
//
// Summation order is fixed, so results do not depend on how the measure was
// assembled: a cell accumulates severities in record order, MergeFrom adds
// element-wise, and F sums region-major, then day.
#ifndef ATYPICAL_CUBE_MEASURE_H_
#define ATYPICAL_CUBE_MEASURE_H_

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "cps/record.h"
#include "cps/region_grid.h"
#include "cps/types.h"

namespace atypical {
namespace cube {

class RegionDayMeasure {
 public:
  // Aggregates the severity of `records` into region×day cells; rows are
  // sized to `regions.num_regions()`.
  static RegionDayMeasure FromAtypical(
      const std::vector<AtypicalRecord>& records,
      const RegionGrid& regions, const TimeGrid& grid);

  RegionDayMeasure() = default;

  // Adds `other` cell by cell (used to accumulate days and months), growing
  // rows and the day count as needed.  Distributivity makes this exact.
  // Only the rows `other` has are replaced; the rest stay shared.
  void MergeFrom(const RegionDayMeasure& other);

  // Total severity F(W', T) for a set of regions and a day range
  // (the red-zone guidance measure; Property 4/5).
  double F(const std::vector<RegionId>& regions, const DayRange& days) const;

  // `days` cut to the stored rows; every day cut off reads 0.0 everywhere,
  // so a sum over the cut range equals the sum over `days` bit for bit.
  DayRange StoredDays(const DayRange& days) const {
    const int64_t last_row = static_cast<int64_t>(days_.size()) - 1;
    return DayRange{
        std::max(days.first_day, 0),
        static_cast<int>(std::min<int64_t>(days.last_day, last_row))};
  }

  // Severity of a single (region, day) cell; 0.0 outside the stored rows.
  double RegionDaySeverity(RegionId region, int day) const {
    if (day < 0 || static_cast<size_t>(day) >= days_.size()) return 0.0;
    const std::vector<double>* row = days_[static_cast<size_t>(day)].get();
    return row != nullptr && region < row->size() ? (*row)[region] : 0.0;
  }

  // The dense payload: Σ row sizes × sizeof(double).
  uint64_t ByteSize() const;

 private:
  using Row = std::shared_ptr<const std::vector<double>>;
  std::vector<Row> days_;  // (*days_[day])[region]; null: an empty row
};

}  // namespace cube
}  // namespace atypical

#endif  // ATYPICAL_CUBE_MEASURE_H_
