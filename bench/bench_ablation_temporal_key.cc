// Ablation: temporal-feature keying for cross-day integration.
//
// DESIGN.md argues TF must be re-keyed to time-of-day before integrating
// daily micro-clusters (the paper's Fig. 5 shows clock-time features).
// With absolute window keys, clusters from different days share no temporal
// keys, TF similarity is 0, and recurring events never merge — this bench
// quantifies that.
#include <algorithm>

#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/integration.h"
#include "core/temporal_key.h"

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Ablation: temporal key mode",
      "cross-day integration with absolute vs time-of-day TF keys",
      "time-of-day keys merge recurring daily events; absolute keys cannot "
      "(TF similarity across days is 0)");

  const auto ctx = analytics::BuildContext(WorkloadScale::kSmall,
                                           bench::BenchMonths(1));
  const TimeGrid& grid = ctx->time_grid();
  const IntegrationParams integration = ctx->forest_params.integration;

  Table table({"key mode", "input micros", "output macros", "merges",
               "pairs evaluated", "largest cluster (days)"});
  for (const TemporalKeyMode mode :
       {TemporalKeyMode::kAbsolute, TemporalKeyMode::kTimeOfDay}) {
    std::vector<AtypicalCluster> inputs;
    for (const AtypicalCluster* micro :
         ctx->forest->MicrosInRange(DayRange{0, 27})) {
      inputs.push_back(WithTemporalKeyMode(*micro, grid, mode));
    }
    const size_t input_count = inputs.size();
    ClusterIdGenerator ids(1u << 22);
    IntegrationStats stats;
    const auto macros =
        IntegrateClusters(std::move(inputs), integration, &ids, &stats);
    int longest_span = 0;
    for (const AtypicalCluster& c : macros) {
      longest_span = std::max(longest_span, c.last_day - c.first_day + 1);
    }
    table.AddRow({mode == TemporalKeyMode::kAbsolute ? "absolute"
                                                     : "time-of-day",
                  StrPrintf("%zu", input_count),
                  StrPrintf("%zu", macros.size()),
                  StrPrintf("%zu", stats.merges),
                  StrPrintf("%zu", stats.similarity_checks),
                  StrPrintf("%d", longest_span)});
  }
  bench::EmitTable("ablation_temporal_key", table);
  return 0;
}
