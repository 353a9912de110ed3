// The measure Algorithm 4 reads: total severity per (region, day) cell.
//
// Red-zone guidance needs exactly one aggregate, F(W', T), and by
// Property 4 total severity is distributive, so F over any region set and
// day range is the sum of its region×day cells.  RegionDayMeasure stores
// those cells densely — one region-indexed row per day — so F and
// RegionDaySeverity are array reads and an epoch clone is a flat copy.
//
// Reads are total: a (region, day) outside the stored rows reads 0.0, which
// covers days before the first ingest, future days and regions past a row's
// length.  Days with no atypical record keep an empty row.
//
// Summation order is fixed, so results do not depend on how the measure was
// assembled: a cell accumulates severities in record order, MergeFrom adds
// element-wise, and F sums region-major, then day.
#ifndef ATYPICAL_CUBE_MEASURE_H_
#define ATYPICAL_CUBE_MEASURE_H_

#include <cstdint>
#include <vector>

#include "cps/record.h"
#include "cps/spatial_partition.h"
#include "cps/types.h"

namespace atypical {
namespace cube {

class RegionDayMeasure {
 public:
  // Aggregates the severity of `records` into region×day cells; rows are
  // sized to `regions.num_regions()`.
  static RegionDayMeasure FromAtypical(
      const std::vector<AtypicalRecord>& records,
      const SpatialPartition& regions, const TimeGrid& grid);

  RegionDayMeasure() = default;

  // Adds `other` cell by cell (used to accumulate days and months), growing
  // rows and the day count as needed.  Distributivity makes this exact.
  void MergeFrom(const RegionDayMeasure& other);

  // Total severity F(W', T) for a set of regions and a day range
  // (the red-zone guidance measure; Property 4/5).
  double F(const std::vector<RegionId>& regions, const DayRange& days) const;

  // Severity of a single (region, day) cell; 0.0 outside the stored rows.
  double RegionDaySeverity(RegionId region, int day) const {
    if (day < 0 || static_cast<size_t>(day) >= days_.size()) return 0.0;
    const std::vector<double>& row = days_[static_cast<size_t>(day)];
    return region < row.size() ? row[region] : 0.0;
  }

  // The dense payload: Σ row sizes × sizeof(double).
  uint64_t ByteSize() const;

 private:
  std::vector<std::vector<double>> days_;  // days_[day][region]
};

}  // namespace cube
}  // namespace atypical

#endif  // ATYPICAL_CUBE_MEASURE_H_
