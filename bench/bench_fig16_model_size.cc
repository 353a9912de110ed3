// Fig. 16 reproduction: constructed model size vs number of datasets for
//   MC — modified CubeView cube (atypical data only; smallest),
//   AC — atypical clusters (all SF/TF features; ~0.5-1% of AE in the paper),
//   OC — original CubeView cube (all readings),
//   AE — the raw atypical events themselves (records; largest of the
//        atypical-side representations).
#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/event_retrieval.h"
#include "cube/cube.h"
#include "gen/workload.h"

int main() {
  using namespace atypical;
  const int months = bench::BenchMonths();
  bench::PrintHeader(
      "Fig. 16", "constructed model size vs # of datasets (KB, cumulative)",
      "MC smallest; AC stores full spatial+temporal features at ~0.5-1% of "
      "AE; OC grows with all data");

  const auto workload = MakeWorkload(WorkloadScale::kSmall);
  const TimeGrid grid = workload->gen_config.time_grid;
  const RetrievalParams retrieval =
      analytics::DefaultForestParams().retrieval;
  ClusterIdGenerator ids;

  cube::CubeView oc;
  cube::CubeView mc;
  uint64_t ac_bytes = 0;
  uint64_t ae_bytes = 0;

  Table table(
      {"# datasets", "MC (KB)", "AC (KB)", "OC (KB)", "AE (KB)", "AC/AE"});
  for (int month = 0; month < months; ++month) {
    const Dataset dataset = workload->generator->GenerateMonth(month);
    const std::vector<AtypicalRecord> atypical =
        dataset.ExtractAtypicalRecords();

    oc.MergeFrom(cube::CubeView::FromReadings(dataset,
                                                  *workload->regions));
    mc.MergeFrom(cube::CubeView::FromAtypical(atypical,
                                                  *workload->regions, grid));
    for (const AtypicalCluster& c : RetrieveMicroClusters(
             atypical, *workload->sensors, grid, retrieval, &ids)) {
      ac_bytes += c.ByteSize();
    }
    // AE: the atypical events stored raw — every record with its event
    // grouping (record payload dominates).
    ae_bytes += atypical.size() * sizeof(AtypicalRecord);

    table.AddRow({StrPrintf("%d", month + 1),
                  StrPrintf("%.0f", static_cast<double>(mc.ByteSize()) / 1024.0),
                  StrPrintf("%.0f", static_cast<double>(ac_bytes) / 1024.0),
                  StrPrintf("%.0f", static_cast<double>(oc.ByteSize()) / 1024.0),
                  StrPrintf("%.0f", static_cast<double>(ae_bytes) / 1024.0),
                  StrPrintf("%.1f%%", 100.0 * static_cast<double>(ac_bytes) /
                                          static_cast<double>(ae_bytes))});
  }
  bench::EmitTable("fig16_model_size", table);
  std::printf(
      "note: the reproduced shape is {MC, AC} << AE << OC.  AC/AE lands near "
      "40%% rather than the paper's 0.5-1%% because laptop-scale events hold "
      "far fewer records per (sensor, window) feature than 4,076-sensor "
      "PeMS events; AC here even undercuts MC, whose four materialized "
      "roll-up levels dominate at this scale.\n");
  return 0;
}
