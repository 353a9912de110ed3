// Ablation: partial materialization of the atypical forest.
//
// The paper materializes only daily micro-clusters and integrates online
// (§IV); larger deployments can pre-compute weekly macro-clusters and answer
// month queries by integrating ~4 week-level inputs instead of hundreds of
// day-level ones.  This bench compares both plans: latency and whether the
// significant-cluster severities agree.
#include <algorithm>

#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/forest.h"
#include "core/integration.h"
#include "core/significance.h"
#include "core/temporal_key.h"
#include "cube/hierarchy.h"
#include "util/stopwatch.h"

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Ablation: forest materialization level",
      "month-scale integration from day micros vs materialized week macros",
      "week-level inputs cut online integration cost; severity mass is "
      "conserved either way (Property 2)");

  const int months = bench::BenchMonths(2);
  const auto ctx = analytics::BuildContext(WorkloadScale::kSmall, months);
  const IntegrationParams integration = ctx->forest_params.integration;
  const SignificanceParams sig = analytics::DefaultSignificanceParams();
  const TimeGrid& grid = ctx->time_grid();

  Stopwatch materialize_timer;
  const std::map<int, std::vector<AtypicalCluster>> weeks =
      MaterializeLevel(*ctx->forest, cube::WeekOfDay, ctx->forest->ids());
  const double materialize_ms = materialize_timer.ElapsedMillis();

  Table table({"month", "day inputs", "from-days (ms)", "week inputs",
               "from-weeks (ms)", "mass match", "sig match"});
  for (int month = 0; month < months; ++month) {
    const DayRange days{month * ctx->days_per_month(),
                        (month + 1) * ctx->days_per_month() - 1};
    const double threshold = SignificanceThreshold(
        sig, days, grid, ctx->network().num_sensors());

    // Plan A: integrate the day-level micro-clusters.
    std::vector<AtypicalCluster> day_inputs;
    for (const AtypicalCluster* micro : ctx->forest->MicrosInRange(days)) {
      day_inputs.push_back(
          WithTemporalKeyMode(*micro, grid, TemporalKeyMode::kTimeOfDay));
    }
    const size_t day_count = day_inputs.size();
    ClusterIdGenerator ids_a(1u << 20);
    Stopwatch plan_a;
    const auto from_days =
        IntegrateClusters(std::move(day_inputs), integration, &ids_a);
    const double plan_a_ms = plan_a.ElapsedMillis();

    // Plan B: integrate the materialized week-level macro-clusters.
    std::vector<AtypicalCluster> week_inputs;
    for (int week = days.first_day / 7; week * 7 <= days.last_day; ++week) {
      const auto it = weeks.find(week);
      if (it == weeks.end()) continue;
      week_inputs.insert(week_inputs.end(), it->second.begin(),
                         it->second.end());
    }
    const size_t week_count = week_inputs.size();
    ClusterIdGenerator ids_b(1u << 21);
    Stopwatch plan_b;
    const auto from_weeks =
        IntegrateClusters(std::move(week_inputs), integration, &ids_b);
    const double plan_b_ms = plan_b.ElapsedMillis();

    // Severity mass must agree exactly (algebraic features); the
    // significant sets should agree closely (hard clustering may split
    // borderline clusters differently).
    double mass_a = 0.0;
    double mass_b = 0.0;
    size_t sig_a = 0;
    size_t sig_b = 0;
    for (const auto& c : from_days) {
      mass_a += c.severity();
      if (IsSignificant(c, threshold)) ++sig_a;
    }
    for (const auto& c : from_weeks) {
      mass_b += c.severity();
      if (IsSignificant(c, threshold)) ++sig_b;
    }

    table.AddRow({StrPrintf("%d", month + 1), StrPrintf("%zu", day_count),
                  StrPrintf("%.2f", plan_a_ms), StrPrintf("%zu", week_count),
                  StrPrintf("%.2f", plan_b_ms),
                  std::abs(mass_a - mass_b) < 1e-6 ? "yes" : "NO",
                  StrPrintf("%zu vs %zu", sig_a, sig_b)});
  }
  bench::EmitTable("ablation_materialization", table);
  std::printf("(one-time weekly materialization cost: %.1f ms)\n",
              materialize_ms);
  return 0;
}
