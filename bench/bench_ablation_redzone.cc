// Ablation: red-zone region granularity and filter mode.
//
// Property 5's safety argument assumes a significant cluster lies inside one
// region; very fine grids split event footprints across regions that are
// individually below the threshold (risking recall), very coarse grids make
// every region red (no pruning).  This bench sweeps the cell size and also
// contrasts the keep-intersecting filter with the stricter keep-contained
// variant.
#include "analytics/ground_truth.h"
#include "analytics/metrics.h"
#include "analytics/report.h"
#include "bench/bench_util.h"

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Ablation: red-zone granularity (Property 5 in practice)",
      "Gui pruning power and recall vs region cell size / filter mode",
      "a mid-size grid prunes most micro-clusters at recall 1.0");

  const int months = bench::BenchMonths(1);
  const auto ctx = analytics::BuildContext(WorkloadScale::kSmall, months);
  const AnalyticalQuery query = ctx->WholeAreaQuery(28);

  // Ground truth from All is independent of the region grid.
  const QueryEngine base_engine =
      ctx->MakeEngine(analytics::DefaultEngineOptions());
  const QueryResult all = base_engine.Run(query, QueryStrategy::kAll);
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(all);
  const auto severities = ctx->forest->MicroSeverities(query.days);

  Table table({"cell (mi)", "mode", "regions", "red zones", "input micros",
               "pruned %", "recall", "precision"});
  for (const double cell : {1.5, 3.0, 6.0, 12.0}) {
    // Rebuild the pre-defined partition and the guidance cube on it.
    const RegionGrid regions(ctx->network(), cell);
    cube::RegionDayMeasure measure;
    for (const auto& month : ctx->monthly_atypical) {
      measure.MergeFrom(cube::RegionDayMeasure::FromAtypical(
          month, regions, ctx->time_grid()));
    }
    for (const cube::RedZoneFilterMode mode :
         {cube::RedZoneFilterMode::kKeepIntersecting,
          cube::RedZoneFilterMode::kKeepContained}) {
      QueryEngineOptions options = analytics::DefaultEngineOptions();
      options.red_zone_mode = mode;
      const QueryEngine engine(&ctx->network(), &regions, ctx->forest.get(),
                               &measure, options);
      const QueryResult gui = engine.Run(query, QueryStrategy::kGuided);
      const analytics::PrecisionRecall pr =
          analytics::EvaluateMass(gui, gt, severities);
      const double pruned =
          100.0 * (1.0 - static_cast<double>(gui.cost.input_micro_clusters) /
                             static_cast<double>(
                                 all.cost.input_micro_clusters));
      table.AddRow(
          {StrPrintf("%.1f", cell),
           mode == cube::RedZoneFilterMode::kKeepIntersecting ? "intersect"
                                                              : "contained",
           StrPrintf("%d", regions.num_regions()),
           StrPrintf("%zu", gui.cost.red_zones),
           StrPrintf("%zu", gui.cost.input_micro_clusters),
           StrPrintf("%.0f%%", pruned), StrPrintf("%.3f", pr.recall),
           StrPrintf("%.3f", pr.precision)});
    }
  }
  bench::EmitTable("ablation_redzone", table);
  return 0;
}
