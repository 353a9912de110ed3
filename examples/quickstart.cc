// Quickstart: the smallest useful pipeline.
//
//   1. synthesize one month of CPS traffic data,
//   2. retrieve atypical events as micro-clusters (Algorithm 1),
//   3. integrate them into macro-clusters (Algorithm 3),
//   4. print the significant ones (Def. 5) with their hottest sensor and
//      peak time — the answers to the paper's Example 1 questions.
//
// Build & run:  cmake --build build && build/examples/quickstart
#include <cstdio>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "core/significance.h"
#include "core/temporal_key.h"
#include "gen/workload.h"
#include "util/string_util.h"

int main() {
  using namespace atypical;

  // A small synthetic deployment: highways, sensors, one month of data.
  std::unique_ptr<Workload> workload = MakeWorkload(WorkloadScale::kTiny);
  const TimeGrid grid = workload->gen_config.time_grid;
  const std::vector<AtypicalRecord> records =
      workload->generator->GenerateMonthAtypical(0);
  std::printf("deployment: %d sensors on %d highways, %zu atypical records\n",
              workload->sensors->num_sensors(),
              workload->sensors->num_highways(), records.size());

  // Algorithm 1: atypical events -> micro-clusters.
  ClusterIdGenerator ids;
  const ForestParams params = analytics::DefaultForestParams();
  RetrievalStats retrieval_stats;
  std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
      records, *workload->sensors, grid, params.retrieval, &ids,
      &retrieval_stats);
  std::printf("Algorithm 1: %zu micro-clusters in %.1f ms\n", micros.size(),
              retrieval_stats.seconds * 1e3);

  // Cross-day integration needs time-of-day temporal keys.
  for (AtypicalCluster& c : micros) {
    c = WithTemporalKeyMode(c, grid, TemporalKeyMode::kTimeOfDay);
  }

  // Algorithm 3: micro -> macro clusters.
  IntegrationStats integration_stats;
  const std::vector<AtypicalCluster> macros = IntegrateClusters(
      std::move(micros), params.integration, &ids, &integration_stats);
  std::printf("Algorithm 3: %zu macro-clusters (%zu merges) in %.1f ms\n",
              macros.size(), integration_stats.merges,
              integration_stats.seconds * 1e3);

  // Def. 5: significant clusters for the whole month / whole area.
  const DayRange month{0, workload->gen_config.days_per_month - 1};
  const double threshold = SignificanceThreshold(
      analytics::DefaultSignificanceParams(), month,
      workload->sensors->num_sensors());
  const std::vector<AtypicalCluster> significant =
      FilterSignificant(macros, threshold);

  std::printf("\nsignificant clusters (severity > %.0f sensor-minutes):\n",
              threshold);
  for (const AtypicalCluster& c : significant) {
    std::printf("  %s\n", c.DebugString(grid).c_str());
  }
  return 0;
}
