// Shuffle-the-bucket-count regression (DESIGN §13): the analyze pipeline —
// retrieval (Algorithm 1), integration (Algorithm 3), the region×day
// measure and the hash-mapped CubeView baseline — must produce bit-identical
// results while unordered-container hash layouts are perturbed underneath
// it via PerturbedReserve.  This is
// the runtime counterpart of the AL009/AL012 static checks: if an iteration
// order ever leaks into ids, output, or float accumulation again, the
// fingerprints below diverge.
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "core/event_retrieval.h"
#include "core/integration.h"
#include "cube/cube.h"
#include "gen/workload.h"
#include "util/hash_perturb.h"

namespace atypical {
namespace {

// Doubles are fingerprinted by their exact bit pattern: a tolerance would
// hide exactly the order-dependent float accumulation this test exists for.
void AppendBits(double v, std::ostringstream* out) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v));
  std::memcpy(&bits, &v, sizeof(bits));
  *out << bits << ',';
}

void AppendCluster(const AtypicalCluster& c, std::ostringstream* out) {
  *out << c.id << '|' << c.first_day << '|' << c.last_day << '|'
       << c.num_records << '|' << c.dominant_true_event << '|'
       << c.left_child << '|' << c.right_child << '|';
  for (const ClusterId id : c.micro_ids) *out << id << ',';
  *out << '|';
  for (const FeatureVector::Entry& e : c.spatial.entries()) {
    *out << e.key << ':';
    AppendBits(e.severity, out);
  }
  *out << '|';
  for (const FeatureVector::Entry& e : c.temporal.entries()) {
    *out << e.key << ':';
    AppendBits(e.severity, out);
  }
  *out << '\n';
}

struct PipelineFingerprint {
  std::string serial;
  std::string measure;
  std::string cube_view;
};

// Every cell of every CubeView level over a fixed key grid, missing cells
// included, so a hash-order leak into any level's sums shows up.
std::string CubeViewFingerprint(const cube::CubeView& view, int num_regions,
                                int num_sensors, int num_days) {
  std::ostringstream out;
  out << view.num_cells() << '|' << view.ByteSize() << '|';
  const auto append_level = [&](cube::CubeLevel level, int spaces,
                                int64_t times) {
    for (int space = 0; space < spaces; ++space) {
      for (int64_t time = 0; time < times; ++time) {
        const cube::CubeCell* cell =
            view.Lookup(level, static_cast<uint32_t>(space), time);
        if (cell == nullptr) {
          out << '-';
          continue;
        }
        out << cell->count << ':';
        AppendBits(cell->severity, &out);
        AppendBits(cell->value_minutes, &out);
      }
    }
    out << '|';
  };
  append_level(cube::CubeLevel::kRegionHour, num_regions, num_days * 24);
  append_level(cube::CubeLevel::kSensorDay, num_sensors, num_days);
  append_level(cube::CubeLevel::kRegionDay, num_regions, num_days);
  append_level(cube::CubeLevel::kRegionWeek, num_regions,
               cube::WeekOfDay(num_days - 1) + 1);
  return out.str();
}

PipelineFingerprint RunPipeline() {
  std::unique_ptr<Workload> workload = MakeWorkload(WorkloadScale::kTiny, 29);
  const TimeGrid grid = workload->gen_config.time_grid;
  const std::vector<AtypicalRecord> records =
      workload->generator->GenerateMonthAtypical(0);

  RetrievalParams retrieval_params;
  ClusterIdGenerator retrieval_ids(1);
  const std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
      records, *workload->sensors, grid, retrieval_params, &retrieval_ids);

  IntegrationParams base;
  base.delta_sim = 0.4;
  ClusterIdGenerator serial_ids(100000);
  const std::vector<AtypicalCluster> serial =
      IntegrateClusters(micros, base, &serial_ids);

  const cube::RegionDayMeasure measure =
      cube::RegionDayMeasure::FromAtypical(records, *workload->regions, grid);

  // Two halves merged, so the per-key CubeView merge is covered as well.
  const auto middle = records.begin() + static_cast<std::ptrdiff_t>(
                                            records.size() / 2);
  cube::CubeView view = cube::CubeView::FromAtypical(
      std::vector<AtypicalRecord>(records.begin(), middle), *workload->regions,
      grid);
  view.MergeFrom(cube::CubeView::FromAtypical(
      std::vector<AtypicalRecord>(middle, records.end()), *workload->regions,
      grid));

  PipelineFingerprint fp;
  std::ostringstream s;
  for (const AtypicalCluster& c : serial) AppendCluster(c, &s);
  fp.serial = s.str();
  std::ostringstream q;
  q << measure.ByteSize() << '|';
  const int num_regions = workload->regions->num_regions();
  constexpr int kDays = 31;
  for (RegionId region = 0; region < static_cast<RegionId>(num_regions);
       ++region) {
    for (int day = 0; day < kDays; ++day) {
      AppendBits(measure.RegionDaySeverity(region, day), &q);
    }
  }
  fp.measure = q.str();
  fp.cube_view = CubeViewFingerprint(view, num_regions,
                                     workload->sensors->num_sensors(), kDays);
  return fp;
}

class DeterminismRegressionTest : public ::testing::Test {
 protected:
  void TearDown() override { SetHashLayoutPerturbation(0); }
};

// Guard against the hook silently becoming a no-op: a perturbed reserve must
// actually move libstdc++ to a different bucket-count prime.
TEST_F(DeterminismRegressionTest, PerturbationChangesBucketLayout) {
  SetHashLayoutPerturbation(0);
  std::unordered_map<int, int> plain;
  PerturbedReserve(plain, 16);
  SetHashLayoutPerturbation(7919);
  std::unordered_map<int, int> perturbed;
  PerturbedReserve(perturbed, 16);
  EXPECT_NE(plain.bucket_count(), perturbed.bucket_count());
}

TEST_F(DeterminismRegressionTest, AnalyzeBitIdenticalAcrossHashLayouts) {
  SetHashLayoutPerturbation(0);
  const PipelineFingerprint baseline = RunPipeline();
  ASSERT_FALSE(baseline.serial.empty());
  ASSERT_FALSE(baseline.measure.empty());
  ASSERT_FALSE(baseline.cube_view.empty());

  for (const size_t perturbation : {size_t{257}, size_t{1031}, size_t{7919}}) {
    SetHashLayoutPerturbation(perturbation);
    const PipelineFingerprint run = RunPipeline();
    EXPECT_EQ(baseline.serial, run.serial)
        << "serial integration output depends on hash layout (perturbation "
        << perturbation << ")";
    EXPECT_EQ(baseline.measure, run.measure)
        << "region×day severities depend on hash layout (perturbation "
        << perturbation << ")";
    EXPECT_EQ(baseline.cube_view, run.cube_view)
        << "CubeView cells depend on hash layout (perturbation "
        << perturbation << ")";
  }
}

}  // namespace
}  // namespace atypical
