// Robustness ablation: cost of the fault-tolerant ingest guard.
//
// The guard (core/ingest.h) validates every record, deduplicates within the
// lateness horizon, and reorders late arrivals before the strict streaming
// builder sees them.  This bench measures that overhead on a clean feed
// against the raw builder, then shows the guard absorbing a
// deterministically mangled feed (delayed, duplicated, corrupted records)
// that would kill the raw builder outright.  Each row is the median time of
// five runs, each on a fresh builder; run k of every row comes before run
// k + 1 of any row, so drift on the host hits all rows alike.
#include <functional>
#include <vector>

#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/ingest.h"
#include "core/streaming.h"
#include "gen/workload.h"
#include "util/fault.h"
#include "util/logging.h"

namespace atypical {
namespace {

struct RunResult {
  double seconds = 0.0;
  size_t clusters = 0;
  IngestStats stats;
};

RunResult RunRaw(const Workload& workload, const TimeGrid& grid,
                 const RetrievalParams& params,
                 const std::vector<AtypicalRecord>& records) {
  RunResult result;
  ClusterIdGenerator ids(1);
  StreamingEventBuilder builder(
      workload.sensors.get(), grid, params, &ids,
      [&](AtypicalCluster, uint64_t) { ++result.clusters; });
  bench::BenchTimer watch("robust_ingest.raw");
  for (const AtypicalRecord& r : records) builder.Add(r);
  builder.Flush();
  result.seconds = watch.StopSeconds();
  result.stats.records_in = records.size();
  result.stats.accepted = records.size();
  return result;
}

RunResult RunGuarded(const Workload& workload, const TimeGrid& grid,
                     const RetrievalParams& params,
                     const IngestOptions& options,
                     const std::vector<AtypicalRecord>& records) {
  RunResult result;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(
      workload.sensors.get(), grid, params, &ids,
      [&](AtypicalCluster, uint64_t) { ++result.clusters; }, options);
  bench::BenchTimer watch("robust_ingest.guard");
  for (const AtypicalRecord& r : records) guard.Add(r);
  guard.Flush();
  result.seconds = watch.StopSeconds();
  result.stats = guard.stats();
  return result;
}

// A table row: its name and one pass on a fresh builder.
struct Row {
  const char* name;
  std::function<RunResult()> run;
};

// Runs every row five times, interleaved, CHECKs that each row's passes
// give the same counts and clusters, and keeps each row's median time.
std::vector<RunResult> MedianOfInterleavedRuns(const std::vector<Row>& rows) {
  std::vector<std::vector<RunResult>> runs(rows.size());
  for (int k = 0; k < 5; ++k) {
    for (size_t i = 0; i < rows.size(); ++i) runs[i].push_back(rows[i].run());
  }
  std::vector<RunResult> medians;
  for (const std::vector<RunResult>& passes : runs) {
    const RunResult& first = passes.front();
    std::vector<double> seconds;
    for (const RunResult& again : passes) {
      CHECK_EQ(again.clusters, first.clusters);
      CHECK_EQ(again.stats.records_in, first.stats.records_in);
      CHECK_EQ(again.stats.accepted, first.stats.accepted);
      CHECK_EQ(again.stats.reordered, first.stats.reordered);
      CHECK_EQ(again.stats.quarantined_duplicate,
               first.stats.quarantined_duplicate);
      CHECK_EQ(again.stats.quarantined_late, first.stats.quarantined_late);
      CHECK_EQ(again.stats.quarantined(), first.stats.quarantined());
      seconds.push_back(again.seconds);
    }
    RunResult median = first;
    median.seconds = bench::MedianSeconds(std::move(seconds));
    medians.push_back(median);
  }
  return medians;
}

}  // namespace
}  // namespace atypical

int main(int argc, char** argv) {
  using namespace atypical;
  FlagParser flags(argc, argv);
  bench::PrintHeader(
      "Robust ingest overhead",
      "validating guard + reorder buffer vs the raw streaming builder",
      "guard overhead should be a small constant factor; only the mangled "
      "feed quarantines records");

  const auto workload = MakeWorkload(WorkloadScale::kSmall);
  const TimeGrid grid = workload->gen_config.time_grid;
  const RetrievalParams params = analytics::DefaultForestParams().retrieval;
  const std::vector<AtypicalRecord> clean =
      workload->generator->GenerateMonthAtypical(0);

  // A hostile feed the raw builder cannot survive: bounded delays (within
  // the default lateness horizon), duplicates, and malformed records.
  FaultPlan plan(42);
  std::vector<AtypicalRecord> mangled =
      plan.DelayRecords(clean, IngestOptions{}.lateness_horizon_windows);
  mangled = plan.DuplicateRecords(mangled, 0.02);
  mangled = plan.CorruptRecords(mangled, 0.01, grid);

  const auto guarded = [&](IngestOptions options,
                           const std::vector<AtypicalRecord>* records) {
    return [&, options, records] {
      return RunGuarded(*workload, grid, params, options, *records);
    };
  };
  const IngestOptions buffer{};  // the default horizon
  const std::vector<Row> rows = {
      {"raw builder (clean)",
       [&] { return RunRaw(*workload, grid, params, clean); }},
      {"guard, horizon 0 (clean)",
       guarded(IngestOptions{.lateness_horizon_windows = 0}, &clean)},
      {"guard (clean)", guarded(buffer, &clean)},
      {"guard (mangled)", guarded(buffer, &mangled)},
  };
  const std::vector<RunResult> results = MedianOfInterleavedRuns(rows);
  const RunResult& raw = results.front();
  const RunResult& hostile = results.back();

  Table table({"configuration", "records in", "accepted", "quarantined",
               "clusters", "Mrec/s", "overhead"});
  const auto add_row = [&](const char* name, const RunResult& r) {
    const double mrps =
        r.seconds > 0
            ? static_cast<double>(r.stats.records_in) / r.seconds / 1e6
            : 0.0;
    const double overhead =
        raw.seconds > 0 ? (r.seconds / raw.seconds - 1.0) * 100.0 : 0.0;
    table.AddRow({name, StrPrintf("%llu", (unsigned long long)r.stats.records_in),
                  StrPrintf("%llu", (unsigned long long)r.stats.accepted),
                  StrPrintf("%llu", (unsigned long long)r.stats.quarantined()),
                  StrPrintf("%zu", r.clusters), StrPrintf("%.2f", mrps),
                  StrPrintf("%+.0f%%", overhead)});
  };
  for (size_t i = 0; i < rows.size(); ++i) add_row(rows[i].name, results[i]);

  bench::EmitTable("robust_ingest", table);
  std::printf("mangled feed health: %s\n",
              analytics::IngestHealthLine(hostile.stats).c_str());
  return bench::DumpStatsIfRequested(flags);
}
