// Fig. 21 reproduction: average severity of the significant monthly
// macro-clusters as the similarity threshold δsim sweeps 0.1..1.0, for all
// five balance functions g.
//
// Paper shapes: max integrates the most (highest average severity), min is
// the most conservative; severity falls sharply as δsim grows; δsim ≈ 0.5
// sits at the knee (the paper's recommended setting).
#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "core/significance.h"
#include "core/temporal_key.h"
#include "gen/workload.h"

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Fig. 21", "avg severity of significant clusters vs δsim per g",
      "max > avg > geo > har > min; severity decays with δsim; knee ~0.5");

  const int months = bench::BenchMonths(6);
  const auto workload = MakeWorkload(WorkloadScale::kSmall);
  const TimeGrid grid = workload->gen_config.time_grid;
  const SignificanceParams sig = analytics::DefaultSignificanceParams();
  const double month_threshold = SignificanceThreshold(
      sig, DayRange{0, workload->gen_config.days_per_month - 1},
      workload->sensors->num_sensors());

  // Micro-cluster retrieval does not depend on δsim/g: do it once per month.
  ClusterIdGenerator ids;
  std::vector<std::vector<AtypicalCluster>> monthly_micros;
  for (int m = 0; m < months; ++m) {
    std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
        workload->generator->GenerateMonthAtypical(m), *workload->sensors,
        grid, analytics::DefaultForestParams().retrieval, &ids);
    for (AtypicalCluster& c : micros) {
      c = WithTemporalKeyMode(c, grid, TemporalKeyMode::kTimeOfDay);
    }
    monthly_micros.push_back(std::move(micros));
  }

  const BalanceFunction functions[] = {
      BalanceFunction::kMin, BalanceFunction::kHarmonicMean,
      BalanceFunction::kGeometricMean, BalanceFunction::kArithmeticMean,
      BalanceFunction::kMax};

  Table table({"δsim", "min", "har", "geo", "avg", "max"});
  for (int step = 1; step <= 10; ++step) {
    const double delta_sim = step / 10.0;
    std::vector<std::string> row = {StrPrintf("%.1f", delta_sim)};
    for (const BalanceFunction g : functions) {
      IntegrationParams params;
      params.delta_sim = delta_sim;
      params.g = g;
      double severity_sum = 0.0;
      int significant = 0;
      for (const auto& micros : monthly_micros) {
        const std::vector<AtypicalCluster> macros =
            IntegrateClusters(micros, params, &ids);
        for (const AtypicalCluster& c : macros) {
          if (IsSignificant(c, month_threshold)) {
            severity_sum += c.severity();
            ++significant;
          }
        }
      }
      row.push_back(significant > 0
                        ? StrPrintf("%.0f", severity_sum / significant)
                        : "-");
    }
    table.AddRow(std::move(row));
  }
  bench::EmitTable("fig21_balance_functions", table);
  std::printf("(values: average severity in sensor-minutes of significant "
              "monthly clusters, %d months; δs = 5%%)\n",
              months);
  return 0;
}
