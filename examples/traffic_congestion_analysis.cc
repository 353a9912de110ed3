// The paper's motivating scenario (Example 1): a transportation officer's
// monthly congestion report for the metropolitan area.
//
// Answers, for each significant congestion macro-cluster:
//   (1) WHERE do congestions usually happen? — top sensors by severity;
//   (2) WHEN and how do they start?          — the temporal profile's onset;
//   (3) WHICH segment/time is most serious?  — peak SF and TF entries.
//
// Uses the full analytical stack: forest + cube + red-zone guided queries,
// and shows the drill-down from a monthly macro-cluster to its daily
// micro-clusters (the clustering tree of Fig. 10).
#include <algorithm>
#include <cstdio>

#include "analytics/report.h"
#include "core/query.h"
#include "util/string_util.h"

namespace {

using namespace atypical;

// Prints the onset: the earliest time-of-day window whose severity reaches
// 20% of the cluster's peak window severity.
void PrintOnset(const AtypicalCluster& cluster, const TimeGrid& grid) {
  const double peak = cluster.temporal.Top().severity;
  for (const FeatureVector::Entry& e : cluster.temporal.entries()) {
    if (e.severity >= 0.2 * peak) {
      std::printf("      starts around %s",
                  ClockLabel(static_cast<int>(e.key) *
                             grid.window_minutes())
                      .c_str());
      return;
    }
  }
}

}  // namespace

int main() {
  using namespace atypical;

  // Three months of data, daily micro-clusters pre-computed offline.
  std::printf("building three months of monitoring data...\n");
  const auto ctx = analytics::BuildContext(WorkloadScale::kSmall, 3);
  const TimeGrid& grid = ctx->time_grid();

  QueryEngine engine = ctx->MakeEngine(analytics::DefaultEngineOptions());

  // Monthly report: whole city, days 0..27, red-zone guided with the exact
  // severity post-check (Algorithm 4 in full).
  QueryEngineOptions options = analytics::DefaultEngineOptions();
  options.post_check_significance = true;
  QueryEngine report_engine = ctx->MakeEngine(options);
  const AnalyticalQuery month_query = ctx->WholeAreaQuery(28);
  const QueryResult report =
      report_engine.Run(month_query, QueryStrategy::kGuided);

  std::printf(
      "\n===== monthly congestion report =====\n"
      "query: whole area (%d sensors), %lld days; guided clustering used\n"
      "%zu of %zu micro-clusters integrated (%zu red zones of %zu regions); "
      "%.1f ms\n",
      report.num_sensors_in_w, (long long)month_query.days.NumDays(),
      report.cost.input_micro_clusters, report.cost.micro_clusters_in_range,
      report.cost.red_zones, report.cost.regions_checked,
      report.cost.seconds * 1e3);

  // Sort by severity for the report.
  std::vector<const AtypicalCluster*> ranked;
  for (const AtypicalCluster& c : report.clusters) ranked.push_back(&c);
  std::sort(ranked.begin(), ranked.end(),
            [](const AtypicalCluster* a, const AtypicalCluster* b) {
              return a->severity() > b->severity();
            });

  int rank = 0;
  for (const AtypicalCluster* c : ranked) {
    if (++rank > 5) break;
    std::printf("\n  #%d recurring congestion, total %.0f sensor-minutes, "
                "%d sensors, %d daily events merged\n",
                rank, c->severity(), c->num_sensors(), c->num_micros());
    // (1) Where.
    std::printf("      worst road segments:");
    for (const FeatureVector::Entry& e : c->spatial.TopEntries(3)) {
      const Sensor& s = ctx->network().sensor(e.key);
      std::printf("  s%u on %s (%.0f min)", e.key,
                  ctx->workload->roads.highway(s.highway).name.c_str(),
                  e.severity);
    }
    std::printf("\n");
    // (2) When.
    PrintOnset(*c, grid);
    const FeatureVector::Entry peak = c->temporal.Top();
    std::printf(", most serious at %s (%.0f min)\n",
                ClockLabel(static_cast<int>(peak.key) *
                           grid.window_minutes())
                    .c_str(),
                peak.severity);
    // (3) Drill-down into the clustering tree: daily pieces.
    std::printf("      drill-down: spans days %d-%d across %d daily events\n",
                c->first_day, c->last_day, c->num_micros());
  }

  // Compare query strategies on the same report (the paper's §V.B).
  std::printf("\n===== strategy comparison (no post-check) =====\n");
  for (const QueryStrategy strategy :
       {QueryStrategy::kAll, QueryStrategy::kPrune, QueryStrategy::kGuided}) {
    const QueryResult r = engine.Run(month_query, strategy);
    std::printf("  %-3s: %5zu input micro-clusters, %4zu macro-clusters, "
                "%7.1f ms\n",
                QueryStrategyName(strategy), r.cost.input_micro_clusters,
                r.clusters.size(), r.cost.seconds * 1e3);
  }
  return 0;
}
