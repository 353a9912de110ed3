// Ablation: the pre-defined partition scheme behind red-zone guidance.
//
// §II.A lists zipcode areas, streets, and R-tree rectangles as
// interchangeable regionalizations.  This bench runs the guided strategy
// with the uniform grid vs the density-adaptive R-tree leaf partition and
// compares pruning power and recall.
#include "analytics/ground_truth.h"
#include "analytics/metrics.h"
#include "analytics/report.h"
#include "bench/bench_util.h"
#include "index/rtree.h"

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Ablation: pre-defined partition scheme (red zones)",
      "uniform grid vs R-tree leaf rectangles as the region scheme",
      "density-adaptive leaves isolate hotspot corridors more tightly at "
      "equal region counts");

  const int months = bench::BenchMonths(1);
  const auto ctx = analytics::BuildContext(WorkloadScale::kSmall, months);
  const AnalyticalQuery query = ctx->WholeAreaQuery(28);

  const QueryResult all = ctx->MakeEngine(analytics::DefaultEngineOptions())
                              .Run(query, QueryStrategy::kAll);
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(all);
  const auto severities = ctx->forest->MicroSeverities(query.days);

  // Candidate partitions, roughly matched in region count.
  const RegionGrid grid_fine(ctx->network(), 1.5);
  const RegionGrid grid_coarse(ctx->network(), 3.0);
  const index::RTreeLeafPartition rtree_small(ctx->network(), 8);
  const index::RTreeLeafPartition rtree_large(ctx->network(), 24);
  const std::vector<const SpatialPartition*> partitions = {
      &grid_fine, &grid_coarse, &rtree_small, &rtree_large};

  Table table({"partition", "regions", "red zones", "input micros",
               "pruned %", "recall", "precision"});
  for (const SpatialPartition* partition : partitions) {
    cube::RegionDayMeasure measure;
    for (const auto& month : ctx->monthly_atypical) {
      measure.MergeFrom(cube::RegionDayMeasure::FromAtypical(
          month, *partition, ctx->time_grid()));
    }
    const QueryEngine engine(&ctx->network(), partition, ctx->forest.get(),
                             &measure, analytics::DefaultEngineOptions());
    const QueryResult gui = engine.Run(query, QueryStrategy::kGuided);
    const analytics::PrecisionRecall pr =
        analytics::EvaluateMass(gui, gt, severities);
    table.AddRow(
        {partition->Name(), StrPrintf("%d", partition->num_regions()),
         StrPrintf("%zu", gui.cost.red_zones),
         StrPrintf("%zu", gui.cost.input_micro_clusters),
         StrPrintf("%.0f%%",
                   100.0 * (1.0 - static_cast<double>(
                                      gui.cost.input_micro_clusters) /
                                  static_cast<double>(
                                      all.cost.input_micro_clusters))),
         StrPrintf("%.3f", pr.recall), StrPrintf("%.3f", pr.precision)});
  }
  bench::EmitTable("ablation_partition", table);
  return 0;
}
