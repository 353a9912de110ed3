#include "analytics/report.h"

#include "util/logging.h"
#include "util/string_util.h"

namespace atypical {
namespace analytics {

ForestParams DefaultForestParams() {
  ForestParams params;
  params.retrieval.delta_d_miles = 1.5;
  params.retrieval.delta_t_minutes = 15;
  params.retrieval.use_index = true;
  params.integration.delta_sim = 0.5;
  params.integration.g = BalanceFunction::kArithmeticMean;
  params.integration.use_candidate_index = true;
  return params;
}

SignificanceParams DefaultSignificanceParams() {
  SignificanceParams params;
  params.delta_s = 0.05;
  params.unit = LengthUnit::kDays;
  return params;
}

QueryEngineOptions DefaultEngineOptions() {
  QueryEngineOptions options;
  options.integration = DefaultForestParams().integration;
  options.significance = DefaultSignificanceParams();
  return options;
}

AnalyticalQuery ExperimentContext::WholeAreaQuery(int num_days) const {
  AnalyticalQuery query;
  query.area = network().bounds();
  query.days = DayRange{0, num_days - 1};
  return query;
}

QueryEngine ExperimentContext::MakeEngine(
    const QueryEngineOptions& options) const {
  return QueryEngine(&network(), &regions(), forest.get(), &measure, options);
}

std::unique_ptr<ExperimentContext> BuildContext(WorkloadScale scale,
                                                int num_months,
                                                const ForestParams& params,
                                                uint64_t seed) {
  CHECK_GT(num_months, 0);
  auto ctx = std::make_unique<ExperimentContext>();
  ctx->workload = MakeWorkload(scale, seed);
  CHECK_LE(num_months, ctx->workload->num_months);
  ctx->forest_params = params;
  ctx->forest = std::make_unique<AtypicalForest>(
      ctx->workload->sensors.get(), ctx->workload->gen_config.time_grid,
      params);

  for (int month = 0; month < num_months; ++month) {
    std::vector<AtypicalRecord> records =
        ctx->workload->generator->GenerateMonthAtypical(month);
    ctx->forest->AddRecords(records);
    ctx->measure.MergeFrom(cube::RegionDayMeasure::FromAtypical(
        records, *ctx->workload->regions,
        ctx->workload->gen_config.time_grid));
    ctx->monthly_atypical.push_back(std::move(records));
  }
  return ctx;
}

std::string IngestHealthLine(const IngestStats& stats) {
  return StrPrintf(
      "in=%llu ok=%llu reord=%llu quar=%llu "
      "(sensor=%llu sev=%llu excess=%llu dup=%llu late=%llu)",
      (unsigned long long)stats.records_in, (unsigned long long)stats.accepted,
      (unsigned long long)stats.reordered,
      (unsigned long long)stats.quarantined(),
      (unsigned long long)stats.quarantined_unknown_sensor,
      (unsigned long long)stats.quarantined_bad_severity,
      (unsigned long long)stats.quarantined_excess_severity,
      (unsigned long long)stats.quarantined_duplicate,
      (unsigned long long)stats.quarantined_late);
}

std::string SalvageHealthLine(const storage::SalvageReport& report) {
  std::string line = StrPrintf(
      "salvage: %llu block%s skipped, %llu records recovered, %llu lost",
      (unsigned long long)report.blocks_skipped,
      report.blocks_skipped == 1 ? "" : "s",
      (unsigned long long)report.records_recovered,
      (unsigned long long)report.records_lost);
  if (report.records_duplicated > 0) {
    line += StrPrintf(", %llu duplicated",
                      (unsigned long long)report.records_duplicated);
  }
  if (report.footer_missing) line += " [footer missing]";
  return line;
}

std::string CompletenessLine(const DataCompleteness& completeness) {
  if (completeness.complete()) return "completeness: full";
  std::string line = StrPrintf(
      "completeness: %d days in range, %d with data, %d degraded, "
      "%llu records lost, %llu quarantined",
      completeness.days_in_range, completeness.days_with_data,
      completeness.days_degraded,
      (unsigned long long)completeness.records_lost,
      (unsigned long long)completeness.records_quarantined);
  if (!completeness.integration_converged) line += " [integration partial]";
  return line;
}

std::map<int, uint64_t> LostRecordsByDay(const storage::SalvageReport& report,
                                         const DatasetMeta& meta,
                                         uint32_t block_records) {
  CHECK_GT(block_records, 0u);
  CHECK_GT(meta.num_sensors, 0);
  const uint64_t records_per_day =
      static_cast<uint64_t>(meta.time_grid.WindowsPerDay()) *
      static_cast<uint64_t>(meta.num_sensors);
  std::map<int, uint64_t> lost_by_day;
  for (const uint64_t block : report.skipped_blocks) {
    const uint64_t first_record = block * block_records;
    for (uint64_t i = 0; i < block_records; ++i) {
      const int day =
          meta.first_day +
          static_cast<int>((first_record + i) / records_per_day);
      // A skipped block past the file's real extent (forged counts, torn
      // tails) still lands on the meta's last day rather than inventing
      // days outside the dataset.
      const int last_day = meta.first_day + meta.num_days - 1;
      lost_by_day[day <= last_day ? day : last_day] += 1;
    }
  }
  return lost_by_day;
}

}  // namespace analytics
}  // namespace atypical
