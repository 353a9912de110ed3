// atypical_cli — command-line driver for the whole pipeline.
//
//   atypical_cli generate --dir /tmp/cps --months 2 [--scale tiny|small]
//       Synthesize monthly datasets and write them as .atyp files.
//
//   atypical_cli inspect /tmp/cps/month0.atyp
//       Print dataset metadata and atypical statistics.
//
//   atypical_cli analyze --dir /tmp/cps [--days a:b] [--strategy All|Pru|Gui]
//                        [--delta-s 0.05] [--post-check]
//       Scan every dataset in the directory, build the forest and the
//       severity cube, run the analytical query and print the top clusters.
//
// The generator is deterministic per --seed, so `generate` + `analyze`
// reproduce exactly.
//
// Every command accepts --stats[=text|json] to dump the pipeline's
// StatsSnapshot on exit (--stats-out FILE redirects it away from stdout).
#include <cstdio>
#include <filesystem>
#include <fstream>

#include "analytics/drilldown.h"
#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/incremental_integration.h"
#include "core/integration.h"
#include "core/query.h"
#include "core/streaming.h"
#include "gen/workload.h"
#include "obs/snapshot.h"
#include "obs/stats.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "util/flags.h"
#include "util/string_util.h"

namespace {

using namespace atypical;

int Fail(const std::string& message) {
  std::fprintf(stderr, "error: %s\n", message.c_str());
  return 1;
}

int Usage() {
  std::fprintf(stderr,
               "usage: atypical_cli generate --dir DIR [--months N] "
               "[--scale tiny|small] [--seed S]\n"
               "       atypical_cli inspect FILE...\n"
               "       atypical_cli analyze --dir DIR [--days A:B] "
               "[--strategy All|Pru|Gui] [--delta-s F] [--post-check] "
               "[--scale tiny|small] [--seed S]\n"
               "       atypical_cli integrate --dir DIR "
               "[--mode batch|streamed] [--delta-sim F] [--max-rounds N] "
               "[--scale tiny|small] [--seed S]\n"
               "Any command also takes --stats[=text|json] "
               "[--stats-out FILE] to dump pipeline metrics on exit.\n");
  return 2;
}

// Renders the process-wide StatsSnapshot per --stats[=text|json], to stdout
// or to --stats-out FILE.  No-op without --stats.
int DumpStats(const FlagParser& flags) {
  if (!flags.Has("stats")) return 0;
  const std::string mode = flags.GetString("stats", "text");
  std::string rendered;
  const obs::StatsSnapshot snapshot = obs::Registry()->Snapshot();
  if (mode == "json") {
    rendered = snapshot.ToJson();
  } else if (mode == "text" || mode == "true") {  // bare --stats
    rendered = snapshot.ToText();
  } else {
    return Fail("--stats expects text or json, got: " + mode);
  }
  const std::string out_path = flags.GetString("stats-out", "");
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
    return 0;
  }
  std::ofstream out(out_path, std::ios::trunc);
  out << rendered;
  if (!out) return Fail("cannot write --stats-out file: " + out_path);
  return 0;
}

Result<WorkloadScale> ParseScale(const std::string& name) {
  if (name == "tiny") return WorkloadScale::kTiny;
  if (name == "small") return WorkloadScale::kSmall;
  if (name == "paper-like") return WorkloadScale::kPaperLike;
  return InvalidArgumentError("unknown scale: " + name);
}

int RunGenerate(const FlagParser& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Usage();
  const int months = static_cast<int>(flags.GetInt("months", 2));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const Result<WorkloadScale> scale =
      ParseScale(flags.GetString("scale", "tiny"));
  if (!scale.ok()) return Fail(scale.status().ToString());
  if (!flags.ok()) return Fail(flags.error());

  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  const auto workload = MakeWorkload(*scale, seed);
  for (int month = 0; month < months; ++month) {
    const Dataset dataset = workload->generator->GenerateMonth(month);
    const std::string path = StrPrintf("%s/month%d.atyp", dir.c_str(), month);
    const Result<uint64_t> bytes = storage::WriteDataset(dataset, path);
    if (!bytes.ok()) return Fail(bytes.status().ToString());
    std::printf("%s: %lld readings (%.1f%% atypical), %s\n", path.c_str(),
                (long long)dataset.num_readings(),
                100.0 * dataset.atypical_fraction(),
                HumanBytes(*bytes).c_str());
  }
  return 0;
}

int RunInspect(const FlagParser& flags) {
  if (flags.positional().size() < 2) return Usage();
  for (size_t i = 1; i < flags.positional().size(); ++i) {
    const std::string& path = flags.positional()[i];
    Result<storage::DatasetReader> reader = storage::DatasetReader::Open(path);
    if (!reader.ok()) return Fail(reader.status().ToString());
    const DatasetMeta& meta = reader->meta();
    int64_t atypical = 0;
    double severity = 0.0;
    const Result<int64_t> scanned =
        reader->ScanAtypical([&](const AtypicalRecord& r) {
          ++atypical;
          severity += static_cast<double>(r.severity_minutes);
        });
    if (!scanned.ok()) return Fail(scanned.status().ToString());
    std::printf(
        "%s: %s — %d days from day %d, %d sensors, %d-min windows; "
        "%lld readings, %lld atypical (%.2f%%), %.0f severity minutes\n",
        path.c_str(), meta.name.c_str(), meta.num_days, meta.first_day,
        meta.num_sensors, meta.time_grid.window_minutes(),
        (long long)*scanned, (long long)atypical,
        *scanned > 0 ? 100.0 * static_cast<double>(atypical) /
                           static_cast<double>(*scanned)
                     : 0.0,
        severity);
  }
  return 0;
}

int RunAnalyze(const FlagParser& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Usage();
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const Result<WorkloadScale> scale =
      ParseScale(flags.GetString("scale", "tiny"));
  if (!scale.ok()) return Fail(scale.status().ToString());
  const std::string strategy_name = flags.GetString("strategy", "Gui");
  const double delta_s = flags.GetDouble("delta-s", 0.05);
  const bool post_check = flags.GetBool("post-check", false);
  const std::string days_spec = flags.GetString("days", "");
  if (!flags.ok()) return Fail(flags.error());
  if (!(delta_s >= 0.0)) {
    return Fail(StrPrintf("--delta-s must be >= 0, got %g", delta_s));
  }

  QueryStrategy strategy;
  if (strategy_name == "All") {
    strategy = QueryStrategy::kAll;
  } else if (strategy_name == "Pru") {
    strategy = QueryStrategy::kPrune;
  } else if (strategy_name == "Gui") {
    strategy = QueryStrategy::kGuided;
  } else {
    return Fail("unknown strategy: " + strategy_name);
  }

  // The sensor deployment is reconstructed from (scale, seed): dataset
  // files store readings, not the map.  A mismatched seed is detectable via
  // the sensor count.
  const auto workload = MakeWorkload(*scale, seed);
  const TimeGrid grid = workload->gen_config.time_grid;
  AtypicalForest forest(workload->sensors.get(), grid,
                        analytics::DefaultForestParams());
  cube::RegionDayMeasure severity_cube;

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".atyp") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) return Fail("no .atyp files in " + dir);

  int min_day = INT32_MAX;
  int max_day = INT32_MIN;
  for (const std::string& path : files) {
    Result<storage::DatasetReader> reader = storage::DatasetReader::Open(path);
    if (!reader.ok()) return Fail(reader.status().ToString());
    if (reader->meta().num_sensors != workload->sensors->num_sensors()) {
      return Fail(StrPrintf(
          "%s has %d sensors but the (scale, seed) deployment has %d — "
          "pass the generate-time --scale/--seed", path.c_str(),
          reader->meta().num_sensors, workload->sensors->num_sensors()));
    }
    std::vector<AtypicalRecord> records;
    const Result<int64_t> scanned = reader->ScanAtypical(
        [&](const AtypicalRecord& r) { records.push_back(r); });
    if (!scanned.ok()) return Fail(scanned.status().ToString());
    min_day = std::min(min_day, reader->meta().first_day);
    max_day = std::max(max_day,
                       reader->meta().first_day + reader->meta().num_days - 1);
    forest.AddRecords(records);
    severity_cube.MergeFrom(cube::RegionDayMeasure::FromAtypical(
        records, *workload->regions, grid));
    std::printf("loaded %s: %zu atypical records\n", path.c_str(),
                records.size());
  }

  AnalyticalQuery query;
  query.area = workload->sensors->bounds();
  query.days = DayRange{min_day, max_day};
  if (!days_spec.empty()) {
    const auto parts = StrSplit(days_spec, ':');
    if (parts.size() != 2) return Fail("--days expects A:B");
    const int64_t first = ParseInt64(parts[0]);
    const int64_t last = ParseInt64(parts[1]);
    if (first < 0 || last < 0 || first > INT32_MAX || last > INT32_MAX) {
      return Fail("--days expects two day numbers in [0, 2147483647], got " +
                  days_spec);
    }
    query.days = DayRange{static_cast<int>(first), static_cast<int>(last)};
    if (query.days.NumDays() <= 0) return Fail("--days range is empty");
  }

  QueryEngineOptions options = analytics::DefaultEngineOptions();
  options.significance.delta_s = delta_s;
  options.post_check_significance = post_check;
  const QueryEngine engine(workload->sensors.get(), workload->regions.get(),
                           &forest, &severity_cube, options);
  const QueryResult result = engine.Run(query, strategy);

  std::printf(
      "\n%s query over days %d-%d (%d sensors): %zu input micro-clusters, "
      "%zu clusters, threshold %.0f, %.1f ms\n\n",
      QueryStrategyName(strategy), query.days.first_day, query.days.last_day,
      result.num_sensors_in_w, result.cost.input_micro_clusters,
      result.clusters.size(), result.threshold, result.cost.seconds * 1e3);
  std::printf("%s", analytics::RenderTopClusters(result.clusters,
                                                 *workload->sensors, grid, 10)
                        .ToAlignedString()
                        .c_str());
  return 0;
}

// Runs Algorithm 1 + Algorithm 3 over every .atyp file in --dir through
// either the batch pipeline (RetrieveMicroClusters + IntegrateClusters) or
// the streamed one (StreamingEventBuilder → IncrementalIntegrator →
// Finalize).  The streamed≡batch guarantee makes the two modes print
// byte-identical macro-cluster lines — CI diffs them — so nothing
// mode-dependent (timing, counters) goes to stdout.
int RunIntegrate(const FlagParser& flags) {
  const std::string dir = flags.GetString("dir", "");
  if (dir.empty()) return Usage();
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const Result<WorkloadScale> scale =
      ParseScale(flags.GetString("scale", "tiny"));
  if (!scale.ok()) return Fail(scale.status().ToString());
  const std::string mode = flags.GetString("mode", "batch");
  if (mode != "batch" && mode != "streamed") {
    return Fail("--mode expects batch or streamed, got: " + mode);
  }
  IntegrationParams params;
  params.delta_sim = flags.GetDouble("delta-sim", params.delta_sim);
  params.max_fixpoint_rounds = static_cast<uint64_t>(flags.GetInt(
      "max-rounds", static_cast<int64_t>(params.max_fixpoint_rounds)));
  if (!flags.ok()) return Fail(flags.error());
  if (!(params.delta_sim > 0.0 && params.delta_sim <= 1.0)) {
    return Fail(
        StrPrintf("--delta-sim must be in (0, 1], got %g", params.delta_sim));
  }

  const auto workload = MakeWorkload(*scale, seed);
  const TimeGrid grid = workload->gen_config.time_grid;
  const RetrievalParams retrieval = analytics::DefaultForestParams().retrieval;

  std::vector<std::string> files;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() == ".atyp") {
      files.push_back(entry.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  if (files.empty()) return Fail("no .atyp files in " + dir);

  std::vector<AtypicalRecord> records;
  for (const std::string& path : files) {
    Result<storage::DatasetReader> reader = storage::DatasetReader::Open(path);
    if (!reader.ok()) return Fail(reader.status().ToString());
    if (reader->meta().num_sensors != workload->sensors->num_sensors()) {
      return Fail(StrPrintf(
          "%s has %d sensors but the (scale, seed) deployment has %d — "
          "pass the generate-time --scale/--seed", path.c_str(),
          reader->meta().num_sensors, workload->sensors->num_sensors()));
    }
    const Result<int64_t> scanned = reader->ScanAtypical(
        [&](const AtypicalRecord& r) { records.push_back(r); });
    if (!scanned.ok()) return Fail(scanned.status().ToString());
  }

  std::vector<AtypicalCluster> micros;
  std::vector<AtypicalCluster> macros;
  ClusterIdGenerator ids(1);
  if (mode == "batch") {
    micros = RetrieveMicroClusters(records, *workload->sensors, grid,
                                   retrieval, &ids);
    macros = IntegrateClusters(micros, params, &ids);
  } else {
    IncrementalIntegrator integrator(params, &ids);
    StreamingEventBuilder builder(workload->sensors.get(), grid, retrieval,
                                  integrator.scratch_ids(),
                                  integrator.AsEmitFn());
    for (const AtypicalRecord& r : records) builder.Add(r);
    builder.Flush();
    macros = integrator.Finalize(/*stats=*/nullptr, &micros);
  }

  std::printf("records=%zu micros=%zu macros=%zu delta_sim=%.17g\n",
              records.size(), micros.size(), macros.size(), params.delta_sim);
  for (const AtypicalCluster& c : macros) {
    std::printf(
        "cluster %llu: severity=%.17g sensors=%d windows=%d micros=%zu\n",
        (unsigned long long)c.id, c.severity(), c.num_sensors(),
        c.num_windows(), c.micro_ids.size());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const FlagParser flags(argc, argv);
  if (flags.positional().empty()) return Usage();
  const std::string& command = flags.positional()[0];
  int rc;
  if (command == "generate") {
    rc = RunGenerate(flags);
  } else if (command == "inspect") {
    rc = RunInspect(flags);
  } else if (command == "analyze") {
    rc = RunAnalyze(flags);
  } else if (command == "integrate") {
    rc = RunIntegrate(flags);
  } else {
    return Usage();
  }
  const int stats_rc = DumpStats(flags);
  return rc != 0 ? rc : stats_rc;
}
