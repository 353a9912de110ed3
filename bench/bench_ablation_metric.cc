// Ablation: Def. 1's distance metric.
//
// With Euclidean distance, concurrent jams on crossing highways chain into
// one event at interchanges — over a month this percolation produces the
// few huge rush-hour clusters the paper's Fig. 11(b) shows for LA.  With
// road-network distance events stay confined to one highway, yielding many
// more, smaller clusters.  This bench quantifies the difference.
#include <algorithm>
#include <set>

#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/event_retrieval.h"
#include "core/forest.h"
#include "core/significance.h"
#include "cube/hierarchy.h"
#include "gen/workload.h"

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Ablation: distance metric (Def. 1)",
      "euclidean vs road-network distance for event chaining",
      "euclidean percolates events across interchanges into mega-clusters; "
      "road distance fragments them per highway");

  const int months = bench::BenchMonths(1);
  const auto workload = MakeWorkload(WorkloadScale::kSmall);
  const TimeGrid grid = workload->gen_config.time_grid;
  const SignificanceParams sig = analytics::DefaultSignificanceParams();

  Table table({"metric", "micro-clusters", "largest micro (sensors)",
               "largest micro (highways)", "monthly macros", "significant",
               "top severity"});
  for (const DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kRoadNetwork}) {
    ForestParams params = analytics::DefaultForestParams();
    params.retrieval.metric = metric;
    AtypicalForest forest(workload->sensors.get(), grid, params);
    for (int m = 0; m < months; ++m) {
      forest.AddRecords(workload->generator->GenerateMonthAtypical(m));
    }

    size_t largest_sensors = 0;
    size_t largest_highways = 0;
    for (int day : forest.Days()) {
      for (const AtypicalCluster& c : forest.MicrosOfDay(day)) {
        if (static_cast<size_t>(c.num_sensors()) > largest_sensors) {
          largest_sensors = c.num_sensors();
          std::set<HighwayId> highways;
          for (const auto& e : c.spatial.entries()) {
            highways.insert(workload->sensors->sensor(e.key).highway);
          }
          largest_highways = highways.size();
        }
      }
    }

    const int days_per_month = workload->gen_config.days_per_month;
    const std::map<int, std::vector<AtypicalCluster>> month_level =
        MaterializeLevel(
            forest,
            [days_per_month](int day) {
              return cube::MonthOfDay(day, days_per_month);
            },
            forest.ids());
    const double threshold = SignificanceThreshold(
        sig, DayRange{0, days_per_month - 1},
        workload->sensors->num_sensors());
    size_t macros = 0;
    size_t significant = 0;
    double top = 0.0;
    for (const auto& [_, month_macros] : month_level) {
      for (const AtypicalCluster& c : month_macros) {
        ++macros;
        if (IsSignificant(c, threshold)) ++significant;
        top = std::max(top, c.severity());
      }
    }

    table.AddRow({DistanceMetricName(metric),
                  StrPrintf("%zu", forest.num_micro_clusters()),
                  StrPrintf("%zu", largest_sensors),
                  StrPrintf("%zu", largest_highways),
                  StrPrintf("%zu", macros), StrPrintf("%zu", significant),
                  StrPrintf("%.0f", top)});
  }
  bench::EmitTable("ablation_metric", table);
  return 0;
}
