// Shared experiment plumbing for the figure-reproduction benches and the
// end-to-end examples: build a workload, materialize the forest and the
// region×day severity measure over a span of months, and expose the pieces
// the paper's experiments combine.
#ifndef ATYPICAL_ANALYTICS_REPORT_H_
#define ATYPICAL_ANALYTICS_REPORT_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/forest.h"
#include "core/ingest.h"
#include "core/query.h"
#include "cube/measure.h"
#include "gen/workload.h"
#include "storage/reader.h"

namespace atypical {
namespace analytics {

// A fully-built analysis stack over `num_months` synthetic months.
struct ExperimentContext {
  std::unique_ptr<Workload> workload;
  // Atypical records per generated month (index = month).
  std::vector<std::vector<AtypicalRecord>> monthly_atypical;
  std::unique_ptr<AtypicalForest> forest;
  cube::RegionDayMeasure measure;  // region×day severity over all months
  ForestParams forest_params;

  const SensorNetwork& network() const { return *workload->sensors; }
  const RegionGrid& regions() const { return *workload->regions; }
  const TimeGrid& time_grid() const {
    return workload->gen_config.time_grid;
  }
  int days_per_month() const { return workload->gen_config.days_per_month; }

  // Whole-area query over the first `num_days` days.
  AnalyticalQuery WholeAreaQuery(int num_days) const;

  // A query engine bound to this context.
  QueryEngine MakeEngine(const QueryEngineOptions& options) const;
};

// Paper-default parameters: δd = 1.5 mi, δt = 15 min, δsim = 0.5,
// g = arithmetic mean.
ForestParams DefaultForestParams();

// Paper-default δs = 5% with day length units.
SignificanceParams DefaultSignificanceParams();

QueryEngineOptions DefaultEngineOptions();

// Generates `num_months` months, builds daily micro-clusters and the
// region×day severity measure.
std::unique_ptr<ExperimentContext> BuildContext(
    WorkloadScale scale, int num_months,
    const ForestParams& params = DefaultForestParams(), uint64_t seed = 1);

// One-line health summary of an ingest run, e.g.
//   "in=1200 ok=1180 reord=40 quar=20 (sensor=3 sev=8 excess=0 dup=5 late=4)"
// — the per-day health line printed by the online monitoring example.
std::string IngestHealthLine(const IngestStats& stats);

// One-line summary of a salvage read, e.g.
//   "salvage: 1 block skipped, 119000 records recovered, 1000 lost"
// (appends ", N duplicated" for replayed blocks and " [footer missing]"
// when the file was truncated).
std::string SalvageHealthLine(const storage::SalvageReport& report);

// One-line summary of a query's DataCompleteness annotation, e.g.
//   "completeness: 28 days in range, 27 with data, 1 degraded, 1000 records
//    lost, 12 quarantined" or "completeness: full".
std::string CompletenessLine(const DataCompleteness& completeness);

// Attributes a salvage read's skipped blocks to absolute days: day ->
// upper bound on records lost on that day.  Dataset files are ordered by
// (window, sensor) and written in fixed `block_records` blocks, so block i
// covers record indices [i*block_records, (i+1)*block_records) and each
// index maps to a window, hence a day.  The per-day tallies sum to
// blocks_skipped * block_records, which may exceed SalvageReport::
// records_lost when the final (short) block was damaged — a bound, not an
// exact count, which is the right polarity for feeding DayProvenance.
std::map<int, uint64_t> LostRecordsByDay(const storage::SalvageReport& report,
                                         const DatasetMeta& meta,
                                         uint32_t block_records);

}  // namespace analytics
}  // namespace atypical

#endif  // ATYPICAL_ANALYTICS_REPORT_H_
