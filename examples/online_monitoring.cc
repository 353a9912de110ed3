// Online monitoring under faults: data arrives day by day over a lossy
// feed — late, duplicated and malformed records included — and the archive
// read at startup has a corrupt block.  The robust ingest guard
// (core/ingest.h) and the salvage reader (storage/reader.h) absorb the
// damage; each evening the system appends the day's micro-clusters to the
// forest and the validated severities to the bottom-up cube, then answers a
// rolling "last 7 days" query with red-zone guided clustering — the paper's
// online analytical query processing (Fig. 2, right half) driven
// incrementally, now in degraded mode.
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "analytics/report.h"
#include "core/incremental_integration.h"
#include "core/ingest.h"
#include "core/query.h"
#include "cube/measure.h"
#include "gen/workload.h"
#include "obs/snapshot.h"
#include "obs/stats.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "util/fault.h"
#include "util/flags.h"
#include "util/string_util.h"

// Accepts --stats[=text|json] [--stats-out FILE] to dump the pipeline's
// StatsSnapshot after the run (same contract as atypical_cli).
int main(int argc, char** argv) {
  using namespace atypical;
  const FlagParser flags(argc, argv);

  const auto workload = MakeWorkload(WorkloadScale::kTiny, 4);
  const TimeGrid grid = workload->gen_config.time_grid;

  // ---- Startup: recover the archived month from a damaged file. ----
  // Write month 0 to disk, flip one payload bit, then read it back in
  // salvage mode: one block is lost, everything else survives.
  const std::string archive = "/tmp/online_monitoring_archive.atyp";
  constexpr uint32_t kArchiveBlockRecords = 512;
  {
    const Dataset month0 = workload->generator->GenerateMonth(0);
    storage::WriterOptions writer_options;
    writer_options.block_records = kArchiveBlockRecords;
    const auto written = storage::WriteDataset(month0, archive, writer_options);
    if (!written.ok()) {
      std::printf("archive write failed: %s\n",
                  written.status().ToString().c_str());
      return 1;
    }
  }
  {
    std::ifstream in(archive, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    // Flip one bit inside the first block's payload: that block's CRC
    // check fails and salvage mode skips exactly one block.
    const size_t payload = sizeof(storage::kMagic) + storage::kFileHeaderBytes +
                           storage::kBlockHeaderBytes;
    FaultPlan disk_fault(7);
    disk_fault.FlipBit(&bytes, payload,
                       payload + kArchiveBlockRecords * storage::kWireRecordBytes);
    std::ofstream out(archive, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
  }
  storage::SalvageReport salvage;
  const Result<Dataset> recovered =
      storage::ReadDataset(archive, {.salvage = true}, &salvage);
  std::remove(archive.c_str());
  if (!recovered.ok()) {
    std::printf("salvage read failed: %s\n",
                recovered.status().ToString().c_str());
    return 1;
  }
  std::printf("startup archive recovery: %s\n",
              analytics::SalvageHealthLine(salvage).c_str());

  // ---- Live feed: three months of days, mangled in transit. ----
  std::map<int, std::vector<AtypicalRecord>> incoming;
  for (int month = 0; month < workload->num_months; ++month) {
    for (const AtypicalRecord& r :
         workload->generator->GenerateMonthAtypical(month)) {
      incoming[grid.DayOfWindow(r.window)].push_back(r);
    }
  }

  AtypicalForest forest(workload->sensors.get(), grid,
                        analytics::DefaultForestParams());
  cube::RegionDayMeasure severity_cube;

  // Attribute the archive damage to absolute days so every later query
  // reports the loss in its completeness annotation instead of silently
  // shrinking (DESIGN §12: quiet day vs blind day).
  for (const auto& [day, lost] : analytics::LostRecordsByDay(
           salvage, recovered->meta(), kArchiveBlockRecords)) {
    DayProvenance damage;
    damage.records_lost = lost;
    damage.blocks_skipped = lost / kArchiveBlockRecords;
    forest.RecordDayProvenance(day, damage);
  }

  IngestOptions ingest_options;
  ingest_options.policy = IngestPolicy::kBuffer;
  FaultPlan feed_fault(2026);

  // One guard and one incremental integrator serve the whole run: records
  // stream guard → integrator as they are validated, and each evening
  // `Finalize()` derives the canonical batch micro-clusters (for the forest)
  // and the day's macro-clusters (the table's "macros" column) — exactly
  // what the per-day batch path produces.  The builder draws provisional
  // ids from the integrator's scratch generator; the real forest ids are
  // only consumed at Finalize.
  const ForestParams forest_params = analytics::DefaultForestParams();
  IncrementalIntegrator integrator(forest_params.integration, forest.ids());
  std::vector<AtypicalRecord> validated;  // the current day's accepted records
  RobustStreamingEventBuilder guard(
      workload->sensors.get(), grid, forest_params.retrieval,
      integrator.scratch_ids(), integrator.AsEmitFn(), ingest_options);
  guard.set_accept_tap(
      [&validated](const AtypicalRecord& r) { validated.push_back(r); });
  IngestStats published_ingest;  // stats are cumulative; rows show the delta

  std::printf(
      "day | micros | macros | ingest health                             "
      "| 7-day significant clusters\n"
      "----|--------|--------|-------------------------------------------"
      "|---------------------------\n");
  for (const auto& [day, records] : incoming) {
    // The transport delays, duplicates and corrupts the day's records.
    std::vector<AtypicalRecord> feed = feed_fault.DelayRecords(
        records, ingest_options.lateness_horizon_windows);
    feed = feed_fault.DuplicateRecords(feed, 0.02);
    feed = feed_fault.CorruptRecords(feed, 0.01, grid);

    // Evening ingest through the guard: malformed records are quarantined,
    // late ones reordered; only the validated stream reaches the integrator
    // and the severity cube.
    validated.clear();
    for (const AtypicalRecord& r : feed) guard.Add(r);
    guard.Flush();

    // Close out the day: canonical micro-clusters into the forest, then
    // re-arm both stages for tomorrow.
    std::vector<AtypicalCluster> day_micros;
    const size_t day_macros =
        integrator.Finalize(/*stats=*/nullptr, &day_micros).size();
    forest.InstallDay(day, std::move(day_micros));
    guard.Reset();
    integrator.Reset();
    severity_cube.MergeFrom(cube::RegionDayMeasure::FromAtypical(
        validated, *workload->regions, grid));

    // What the guard absorbed becomes part of the day's provenance: a day
    // whose records were quarantined is a degraded day, not a quiet one.
    // Guard stats are cumulative across Reset(), so take the day's delta.
    const IngestStats total = guard.stats();
    IngestStats day_stats;
    day_stats.records_in = total.records_in - published_ingest.records_in;
    day_stats.accepted = total.accepted - published_ingest.accepted;
    day_stats.reordered = total.reordered - published_ingest.reordered;
    day_stats.quarantined_unknown_sensor =
        total.quarantined_unknown_sensor -
        published_ingest.quarantined_unknown_sensor;
    day_stats.quarantined_bad_severity =
        total.quarantined_bad_severity -
        published_ingest.quarantined_bad_severity;
    day_stats.quarantined_excess_severity =
        total.quarantined_excess_severity -
        published_ingest.quarantined_excess_severity;
    day_stats.quarantined_duplicate =
        total.quarantined_duplicate - published_ingest.quarantined_duplicate;
    day_stats.quarantined_late =
        total.quarantined_late - published_ingest.quarantined_late;
    published_ingest = total;
    DayProvenance ingested;
    ingested.records_stored = day_stats.accepted;
    ingested.records_quarantined = day_stats.quarantined();
    forest.RecordDayProvenance(day, ingested);

    // Rolling weekly query ending today.
    AnalyticalQuery query;
    query.area = workload->sensors->bounds();
    query.days = DayRange{std::max(0, day - 6), day};
    QueryEngineOptions options = analytics::DefaultEngineOptions();
    options.post_check_significance = true;  // exact significant set
    const QueryEngine nightly(workload->sensors.get(),
                              workload->regions.get(), &forest,
                              &severity_cube, options);
    const QueryResult result = nightly.Run(query, QueryStrategy::kGuided);

    std::string summary;
    for (const AtypicalCluster& c : result.clusters) {
      const FeatureVector::Entry top = c.spatial.Top();
      summary += StrPrintf(" [s%u %.0fmin]", top.key, c.severity());
    }
    std::printf("%3d | %6zu | %6zu | %s |%s\n", day,
                forest.MicrosOfDay(day).size(), day_macros,
                analytics::IngestHealthLine(day_stats).c_str(),
                summary.empty() ? " (none)" : summary.c_str());
  }

  std::printf("\nforest now holds %zu micro-clusters (%s)\n",
              forest.num_micro_clusters(),
              HumanBytes(forest.ByteSize()).c_str());

  // ---- Audit: how trustworthy was the whole run? ----
  // One query over the full history; its completeness annotation folds in
  // every day's provenance (archive loss + feed quarantines).
  {
    const std::vector<int> days = forest.Days();
    AnalyticalQuery audit;
    audit.area = workload->sensors->bounds();
    audit.days = DayRange{days.front(), days.back()};
    const QueryEngine engine(workload->sensors.get(), workload->regions.get(),
                             &forest, &severity_cube,
                             analytics::DefaultEngineOptions());
    const QueryResult history = engine.Run(audit, QueryStrategy::kAll);
    std::printf("full-history audit: %s\n",
                analytics::CompletenessLine(history.completeness).c_str());
  }

  if (flags.Has("stats")) {
    const std::string mode = flags.GetString("stats", "text");
    const obs::StatsSnapshot snapshot = obs::Registry()->Snapshot();
    std::string rendered;
    if (mode == "json") {
      rendered = snapshot.ToJson();
    } else if (mode == "text" || mode == "true") {  // bare --stats
      rendered = snapshot.ToText();
    } else {
      std::fprintf(stderr, "error: --stats expects text or json, got: %s\n",
                   mode.c_str());
      return 1;
    }
    const std::string out_path = flags.GetString("stats-out", "");
    if (out_path.empty()) {
      std::fputs(rendered.c_str(), stdout);
    } else {
      std::ofstream out(out_path, std::ios::trunc);
      out << rendered;
      if (!out) {
        std::fprintf(stderr, "error: cannot write --stats-out file: %s\n",
                     out_path.c_str());
        return 1;
      }
    }
  }
  return 0;
}
