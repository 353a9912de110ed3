// Fig. 15 reproduction: offline model-construction time vs number of
// datasets for the four systems of §V.A:
//   PR — pre-processing: scan the raw on-disk dataset, select atypical
//        records (shared by all models, runs once);
//   OC — original CubeView: bottom-up cube over ALL readings (reads the raw
//        dataset too);
//   MC — modified CubeView: bottom-up cube over atypical records only;
//   AC — atypical clusters: Algorithm 1 over atypical records.
//
// Times are cumulative over the datasets used, as in the paper.
#include <cstdio>

#include "bench/bench_util.h"
#include "core/event_retrieval.h"
#include "analytics/report.h"
#include "cube/cube.h"
#include "gen/workload.h"
#include "storage/reader.h"
#include "storage/writer.h"

int main() {
  using namespace atypical;
  const int months = bench::BenchMonths();
  bench::PrintHeader(
      "Fig. 15", "construction time vs # of datasets (seconds, cumulative)",
      "MC and AC an order of magnitude faster than OC; PR close to OC "
      "(both scan the raw data)");

  const auto workload = MakeWorkload(WorkloadScale::kSmall);
  const TimeGrid grid = workload->gen_config.time_grid;
  const RetrievalParams retrieval =
      analytics::DefaultForestParams().retrieval;
  ClusterIdGenerator ids;

  Table table({"# datasets", "PR (s)", "OC (s)", "MC (s)", "AC (s)"});
  double pr_total = 0.0;
  double oc_total = 0.0;
  double mc_total = 0.0;
  double ac_total = 0.0;

  for (int month = 0; month < months; ++month) {
    const Dataset dataset = workload->generator->GenerateMonth(month);
    const std::string path =
        StrPrintf("/tmp/atypical_fig15_m%d.atyp", month);
    CHECK_OK(storage::WriteDataset(dataset, path).status());

    // PR: one full scan of the stored raw data selecting atypical records.
    bench::BenchTimer pr_timer("fig15.pr");
    std::vector<AtypicalRecord> atypical;
    {
      Result<storage::DatasetReader> reader =
          storage::DatasetReader::Open(path);
      CHECK_OK(reader.status());
      const Result<int64_t> scanned =
          reader->ScanAtypical([&](const AtypicalRecord& r) {
            atypical.push_back(r);
          });
      CHECK_OK(scanned.status());
    }
    pr_total += pr_timer.StopSeconds();

    // OC: read the raw dataset back and aggregate every reading.
    bench::BenchTimer oc_timer("fig15.oc");
    {
      Result<Dataset> raw = storage::ReadDataset(path);
      CHECK_OK(raw.status());
      cube::CubeView oc =
          cube::CubeView::FromReadings(*raw, *workload->regions);
      (void)oc;  // timing the build; the cube itself is discarded
    }
    oc_total += oc_timer.StopSeconds();

    // MC: aggregate only the pre-selected atypical records.
    bench::BenchTimer mc_timer("fig15.mc");
    {
      cube::CubeView mc = cube::CubeView::FromAtypical(
          atypical, *workload->regions, grid);
      (void)mc;  // timing the build; the cube itself is discarded
    }
    mc_total += mc_timer.StopSeconds();

    // AC: Algorithm 1 over the atypical records.
    bench::BenchTimer ac_timer("fig15.ac");
    {
      const auto micros = RetrieveMicroClusters(atypical, *workload->sensors,
                                                grid, retrieval, &ids);
      (void)micros;  // timing the clustering; output discarded
    }
    ac_total += ac_timer.StopSeconds();

    std::remove(path.c_str());
    table.AddRow({StrPrintf("%d", month + 1), StrPrintf("%.3f", pr_total),
                  StrPrintf("%.3f", oc_total), StrPrintf("%.3f", mc_total),
                  StrPrintf("%.3f", ac_total)});
  }
  bench::EmitTable("fig15_construction_time", table);
  std::printf("note: OC/PR scan all %d-month raw data (with disk I/O); MC/AC "
              "touch only the ~3%% atypical slice.\n",
              months);
  return 0;
}
