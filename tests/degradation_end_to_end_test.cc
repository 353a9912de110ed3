// The graceful-degradation contract, end to end (DESIGN §12): a FaultPlan-
// damaged dataset, pushed through salvage → ingest → forest → query, must
// yield (a) exactly the clusters a clean run restricted to the surviving
// records yields — same ids, same event labels — and (b) a completeness
// annotation that localizes the loss per day, distinguishing a blind day
// (records lost) from a quiet one (nothing happened).
#include <algorithm>
#include <cstdio>
#include <fstream>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/ingest.h"
#include "cube/measure.h"
#include "gen/workload.h"
#include "storage/reader.h"
#include "storage/writer.h"
#include "util/fault.h"
#include "util/logging.h"

namespace atypical {
namespace {

using storage::SalvageReport;
using storage::WriterOptions;
using storage::WriteDataset;

// Blocks sized to exactly one day of readings, so each skipped block maps to
// one blind day.
class DegradationEndToEndTest : public ::testing::Test {
 protected:
  DegradationEndToEndTest() {
    workload_ = MakeWorkload(WorkloadScale::kTiny, 17);
    grid_ = workload_->gen_config.time_grid;
    pristine_ = workload_->generator->GenerateMonth(0);
    records_per_day_ = static_cast<uint32_t>(
        grid_.WindowsPerDay() * pristine_.meta().num_sensors);
    path_ = ::testing::TempDir() + "/degradation_e2e.atyp";
    WriterOptions options;
    options.block_records = records_per_day_;
    CHECK_OK(WriteDataset(pristine_, path_, options).status());
  }
  ~DegradationEndToEndTest() override { std::remove(path_.c_str()); }

  // Flips one payload bit in each of `blocks`, failing those blocks' CRCs.
  void DamageBlocks(const std::vector<uint64_t>& blocks) {
    std::ifstream in(path_, std::ios::binary);
    std::vector<uint8_t> bytes((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
    in.close();
    const size_t data_start = sizeof(storage::kMagic) + storage::kFileHeaderBytes;
    const size_t block_bytes = storage::kBlockHeaderBytes +
                               records_per_day_ * storage::kWireRecordBytes;
    FaultPlan plan(404);
    for (const uint64_t b : blocks) {
      const size_t off = data_start + static_cast<size_t>(b) * block_bytes;
      plan.FlipBit(&bytes, off + storage::kBlockHeaderBytes, off + block_bytes);
    }
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(reinterpret_cast<const char*>(bytes.data()),  // NOLINT: byte I/O
              static_cast<std::streamsize>(bytes.size()));
  }

  // The pristine readings minus the damaged blocks' day slices.
  Dataset Restricted(const std::vector<uint64_t>& damaged_blocks) const {
    std::vector<Reading> survivors;
    const std::vector<Reading>& all = pristine_.readings();
    for (size_t i = 0; i < all.size(); ++i) {
      const uint64_t block = i / records_per_day_;
      if (std::find(damaged_blocks.begin(), damaged_blocks.end(), block) ==
          damaged_blocks.end()) {
        survivors.push_back(all[i]);
      }
    }
    return Dataset(pristine_.meta(), std::move(survivors));
  }

  // Ingest → forest → provenance for one source dataset.  Every record goes
  // through the robust guard (kBuffer), mirroring the production path.
  struct Built {
    std::unique_ptr<AtypicalForest> forest;
    std::unique_ptr<cube::RegionDayMeasure> cube;
    IngestStats ingest;
  };
  Built Build(const Dataset& source, const SalvageReport* report) {
    Built built;
    built.forest = std::make_unique<AtypicalForest>(
        workload_->sensors.get(), grid_, analytics::DefaultForestParams());
    std::vector<AtypicalRecord> accepted;
    {
      RobustStreamingEventBuilder guard(
          workload_->sensors.get(), grid_,
          analytics::DefaultForestParams().retrieval, built.forest->ids(),
          [](AtypicalCluster, uint64_t) {});
      guard.set_accept_tap(
          [&](const AtypicalRecord& r) { accepted.push_back(r); });
      for (const AtypicalRecord& r : source.ExtractAtypicalRecords()) {
        (void)guard.Add(r);  // quarantine verdicts land in stats()
      }
      guard.Flush();
      built.ingest = guard.stats();
    }
    built.forest->AddRecords(accepted);
    built.cube = std::make_unique<cube::RegionDayMeasure>(
        cube::RegionDayMeasure::FromAtypical(accepted, *workload_->regions,
                                             grid_));

    if (report != nullptr) {
      // Storage loss attributed per day, quarantine charged to the range's
      // first day (the guard does not track per-record days).
      for (const auto& [day, lost] : analytics::LostRecordsByDay(
               *report, source.meta(), records_per_day_)) {
        DayProvenance p;
        p.records_lost = lost;
        p.blocks_skipped = lost / records_per_day_;
        built.forest->RecordDayProvenance(day, p);
      }
      if (built.ingest.quarantined() > 0) {
        DayProvenance p;
        p.records_quarantined = built.ingest.quarantined();
        built.forest->RecordDayProvenance(source.meta().first_day, p);
      }
    }
    return built;
  }

  QueryResult RunAll(Built* built, const DayRange& days) {
    AnalyticalQuery query;
    query.area = workload_->sensors->bounds();
    query.days = days;
    QueryEngine engine(workload_->sensors.get(), workload_->regions.get(),
                       built->forest.get(), built->cube.get(),
                       analytics::DefaultEngineOptions());
    return engine.Run(query, QueryStrategy::kAll);
  }

  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
  Dataset pristine_;
  uint32_t records_per_day_ = 0;
  std::string path_;
};

// The acceptance property: damaged query == clean-restricted query, plus an
// honest completeness annotation on the damaged side only.
TEST_F(DegradationEndToEndTest, DamagedRunMatchesCleanRunOnSurvivors) {
  const std::vector<uint64_t> damaged_blocks = {2, 5};
  DamageBlocks(damaged_blocks);

  SalvageReport report;
  storage::ReaderOptions options;
  options.salvage = true;
  const Result<Dataset> salvaged =
      storage::ReadDataset(path_, options, &report);
  ASSERT_TRUE(salvaged.ok()) << salvaged.status().ToString();
  ASSERT_EQ(report.blocks_skipped, damaged_blocks.size());
  ASSERT_EQ(report.skipped_blocks, damaged_blocks);

  Built damaged = Build(*salvaged, &report);
  Built clean = Build(Restricted(damaged_blocks), nullptr);

  const DayRange whole = pristine_.meta().Days();
  const QueryResult from_damaged = RunAll(&damaged, whole);
  const QueryResult from_clean = RunAll(&clean, whole);

  // Identical clusters: same ids, same severities, same event labels.  Both
  // pipelines saw the same record sequence, so their id generators agree.
  ASSERT_EQ(from_damaged.clusters.size(), from_clean.clusters.size());
  auto by_id = [](const AtypicalCluster& a, const AtypicalCluster& b) {
    return a.id < b.id;
  };
  std::vector<AtypicalCluster> lhs = from_damaged.clusters;
  std::vector<AtypicalCluster> rhs = from_clean.clusters;
  std::sort(lhs.begin(), lhs.end(), by_id);
  std::sort(rhs.begin(), rhs.end(), by_id);
  for (size_t i = 0; i < lhs.size(); ++i) {
    EXPECT_EQ(lhs[i].id, rhs[i].id);
    EXPECT_EQ(lhs[i].dominant_true_event, rhs[i].dominant_true_event);
    EXPECT_DOUBLE_EQ(lhs[i].severity(), rhs[i].severity());
  }

  // The damaged answer declares its blindness; the clean one is complete.
  const DataCompleteness& dc = from_damaged.completeness;
  EXPECT_FALSE(dc.complete());
  EXPECT_EQ(dc.days_in_range, pristine_.meta().num_days);
  EXPECT_EQ(dc.days_degraded, static_cast<int>(damaged_blocks.size()));
  EXPECT_EQ(dc.records_lost,
            static_cast<uint64_t>(damaged_blocks.size()) * records_per_day_);
  EXPECT_TRUE(dc.integration_converged);
  EXPECT_TRUE(from_clean.completeness.complete());
  EXPECT_EQ(from_clean.completeness.days_in_range,
            pristine_.meta().num_days);
}

// Per-day annotation distinguishes a blind day from a quiet one.
TEST_F(DegradationEndToEndTest, BlindDayVsQuietDay) {
  const std::vector<uint64_t> damaged_blocks = {3};
  DamageBlocks(damaged_blocks);

  SalvageReport report;
  storage::ReaderOptions options;
  options.salvage = true;
  const Result<Dataset> salvaged =
      storage::ReadDataset(path_, options, &report);
  ASSERT_TRUE(salvaged.ok());
  Built built = Build(*salvaged, &report);

  const int first = pristine_.meta().first_day;
  // Blind day: its whole block was lost; the empty answer says so.
  const QueryResult blind =
      RunAll(&built, DayRange{first + 3, first + 3});
  EXPECT_TRUE(blind.clusters.empty());
  EXPECT_EQ(blind.completeness.days_in_range, 1);
  EXPECT_EQ(blind.completeness.days_with_data, 0);
  EXPECT_EQ(blind.completeness.days_degraded, 1);
  EXPECT_EQ(blind.completeness.records_lost,
            static_cast<uint64_t>(records_per_day_));
  EXPECT_FALSE(blind.completeness.complete());

  // Quiet day: past the stored month, no data AND no damage — empty result,
  // clean conscience.
  const int past = first + pristine_.meta().num_days;
  const QueryResult quiet = RunAll(&built, DayRange{past, past});
  EXPECT_TRUE(quiet.clusters.empty());
  EXPECT_EQ(quiet.completeness.days_in_range, 1);
  EXPECT_EQ(quiet.completeness.days_with_data, 0);
  EXPECT_EQ(quiet.completeness.days_degraded, 0);
  EXPECT_TRUE(quiet.completeness.complete());

  // An undamaged stored day is complete and has data.
  const QueryResult good = RunAll(&built, DayRange{first, first});
  EXPECT_EQ(good.completeness.days_with_data, 1);
  EXPECT_TRUE(good.completeness.complete());

  // CompletenessLine renders both states.
  EXPECT_EQ(analytics::CompletenessLine(quiet.completeness),
            "completeness: full");
  EXPECT_NE(analytics::CompletenessLine(blind.completeness).find("degraded"),
            std::string::npos);
}

// Ingest quarantine propagates into the annotation alongside storage loss.
TEST_F(DegradationEndToEndTest, QuarantineShowsUpInCompleteness) {
  // Corrupt a slice of the atypical stream; the guard quarantines them.
  FaultPlan plan(99);
  const std::vector<AtypicalRecord> records =
      plan.CorruptRecords(pristine_.ExtractAtypicalRecords(), 0.2, grid_);

  Built built;
  built.forest = std::make_unique<AtypicalForest>(
      workload_->sensors.get(), grid_, analytics::DefaultForestParams());
  std::vector<AtypicalRecord> accepted;
  {
    RobustStreamingEventBuilder guard(
        workload_->sensors.get(), grid_,
        analytics::DefaultForestParams().retrieval, built.forest->ids(),
        [](AtypicalCluster, uint64_t) {});
    guard.set_accept_tap(
        [&](const AtypicalRecord& r) { accepted.push_back(r); });
    for (const AtypicalRecord& r : records) {
      (void)guard.Add(r);  // corrupt ones are the point
    }
    guard.Flush();
    built.ingest = guard.stats();
  }
  ASSERT_GT(built.ingest.quarantined(), 0u);
  built.forest->AddRecords(accepted);
  built.cube = std::make_unique<cube::RegionDayMeasure>(
      cube::RegionDayMeasure::FromAtypical(accepted, *workload_->regions,
                                           grid_));
  DayProvenance p;
  p.records_quarantined = built.ingest.quarantined();
  built.forest->RecordDayProvenance(pristine_.meta().first_day, p);

  const QueryResult result = RunAll(&built, pristine_.meta().Days());
  EXPECT_EQ(result.completeness.records_quarantined,
            built.ingest.quarantined());
  EXPECT_EQ(result.completeness.days_degraded, 1);
  EXPECT_FALSE(result.completeness.complete());
}

// The integration budget guard surfaces through the annotation: a partial
// fixpoint is a degradation, not a silent wrong answer.
TEST_F(DegradationEndToEndTest, IntegrationBudgetBreaksCompleteness) {
  Built built = Build(pristine_, nullptr);

  AnalyticalQuery query;
  query.area = workload_->sensors->bounds();
  query.days = pristine_.meta().Days();

  QueryEngineOptions options = analytics::DefaultEngineOptions();
  options.integration.max_fixpoint_rounds = 1;
  QueryEngine budgeted(workload_->sensors.get(), workload_->regions.get(),
                       built.forest.get(), built.cube.get(), options);
  const QueryResult partial = budgeted.Run(query, QueryStrategy::kAll);
  EXPECT_FALSE(partial.completeness.integration_converged);
  EXPECT_FALSE(partial.completeness.complete());
  EXPECT_FALSE(partial.cost.integration.converged);

  QueryEngine unbudgeted(workload_->sensors.get(), workload_->regions.get(),
                         built.forest.get(), built.cube.get(),
                         analytics::DefaultEngineOptions());
  const QueryResult full = unbudgeted.Run(query, QueryStrategy::kAll);
  EXPECT_TRUE(full.completeness.integration_converged);
  EXPECT_TRUE(full.completeness.complete());
  // The partial answer under-merges: at least as many clusters as the
  // converged one, covering the same severity mass.
  EXPECT_GE(partial.clusters.size(), full.clusters.size());
  double partial_mass = 0.0;
  double full_mass = 0.0;
  for (const AtypicalCluster& c : partial.clusters) partial_mass += c.severity();
  for (const AtypicalCluster& c : full.clusters) full_mass += c.severity();
  EXPECT_NEAR(partial_mass, full_mass, 1e-6);
}

}  // namespace
}  // namespace atypical
