// Fig. 20 reproduction: number of clusters vs δt (a) and δd (b).
//
// For each parameter setting the full span of data is re-clustered:
// micro-clusters per day, weekly and monthly macro-clusters, and the
// significant subsets at the default δs.
//
// Paper shapes: weekly/monthly macro counts far exceed the per-day micro
// count but only a tiny fraction are significant; macro counts fall quickly
// as δt grows (more merging) and more slowly with δd; significant counts
// are robust to both.
#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/event_retrieval.h"
#include "core/forest.h"
#include "core/significance.h"
#include "cube/hierarchy.h"
#include "gen/workload.h"

namespace {

using namespace atypical;

struct Row {
  double micro_per_day;
  double macro_week;
  double macro_month;
  double sig_week;
  double sig_month;
};

Row Measure(const Workload& workload, int months, double delta_d,
            int delta_t) {
  ForestParams params = analytics::DefaultForestParams();
  params.retrieval.delta_d_miles = delta_d;
  params.retrieval.delta_t_minutes = delta_t;
  AtypicalForest forest(workload.sensors.get(), workload.gen_config.time_grid,
                        params);
  for (int m = 0; m < months; ++m) {
    forest.AddRecords(workload.generator->GenerateMonthAtypical(m));
  }
  const int days = months * workload.gen_config.days_per_month;
  const int n = workload.sensors->num_sensors();
  const SignificanceParams sig = analytics::DefaultSignificanceParams();

  Row row{};
  row.micro_per_day =
      static_cast<double>(forest.num_micro_clusters()) / days;

  const std::map<int, std::vector<AtypicalCluster>> week_level =
      MaterializeLevel(forest, cube::WeekOfDay, forest.ids());
  const double week_threshold = SignificanceThreshold(sig, DayRange{0, 6}, n);
  int weeks = 0;
  for (int w = 0; w * 7 < days; ++w) {
    const auto it = week_level.find(w);
    if (it == week_level.end()) continue;
    ++weeks;
    for (const AtypicalCluster& c : it->second) {
      row.macro_week += 1;
      if (IsSignificant(c, week_threshold)) row.sig_week += 1;
    }
  }
  if (weeks > 0) {
    row.macro_week /= weeks;
    row.sig_week /= weeks;
  }

  const int days_per_month = workload.gen_config.days_per_month;
  const std::map<int, std::vector<AtypicalCluster>> month_level =
      MaterializeLevel(
          forest,
          [days_per_month](int day) {
            return cube::MonthOfDay(day, days_per_month);
          },
          forest.ids());
  const double month_threshold = SignificanceThreshold(
      sig, DayRange{0, days_per_month - 1}, n);
  for (int m = 0; m < months; ++m) {
    for (const AtypicalCluster& c : month_level.at(m)) {
      row.macro_month += 1;
      if (IsSignificant(c, month_threshold)) row.sig_month += 1;
    }
  }
  row.macro_month /= months;
  row.sig_month /= months;
  return row;
}

void EmitSweep(const char* name, const char* axis, bool sweep_delta_t,
               const std::vector<std::pair<double, int>>& settings,
               const Workload& workload, int months) {
  Table table({axis, "micro/day", "macro(week)", "macro(month)", "sig(week)",
               "sig(month)"});
  for (const auto& [delta_d, delta_t] : settings) {
    const Row row = Measure(workload, months, delta_d, delta_t);
    const std::string label = sweep_delta_t ? StrPrintf("%d min", delta_t)
                                            : StrPrintf("%.1f mi", delta_d);
    table.AddRow({label, StrPrintf("%.1f", row.micro_per_day),
                  StrPrintf("%.1f", row.macro_week),
                  StrPrintf("%.1f", row.macro_month),
                  StrPrintf("%.1f", row.sig_week),
                  StrPrintf("%.1f", row.sig_month)});
  }
  bench::EmitTable(name, table);
}

}  // namespace

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Fig. 20", "# of clusters vs δt (a) and δd (b)",
      "macro counts >> significant counts; counts shrink fast with δt, "
      "slower with δd; significant counts robust to both");

  const int months = bench::BenchMonths(6);
  const auto workload = MakeWorkload(WorkloadScale::kSmall);

  std::printf("\n(a) sweep δt at δd = 1.5 mi, %d months\n", months);
  EmitSweep("fig20a_delta_t", "δt", /*sweep_delta_t=*/true,
            {{1.5, 15}, {1.5, 20}, {1.5, 40}, {1.5, 60}, {1.5, 80}},
            *workload, months);

  std::printf("\n(b) sweep δd at δt = 15 min, %d months\n", months);
  EmitSweep("fig20b_delta_d", "δd", /*sweep_delta_t=*/false,
            {{1.5, 15}, {3.0, 15}, {6.0, 15}, {12.0, 15}, {24.0, 15}},
            *workload, months);
  return 0;
}
