// Shuffle-the-bucket-count regression (DESIGN §13): the analyze pipeline —
// retrieval (Algorithm 1), integration (Algorithm 3), cube build — must produce bit-identical results while unordered-container
// hash layouts are perturbed underneath it via PerturbedReserve.  This is
// the runtime counterpart of the AL009/AL012 static checks: if an iteration
// order ever leaks into ids, output, or float accumulation again, the
// fingerprints below diverge.
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
  std::string cube;
};

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

  const cube::BottomUpCube cube =
      cube::BottomUpCube::FromAtypical(records, *workload->regions, grid);

  PipelineFingerprint fp;
  std::ostringstream s;
  for (const AtypicalCluster& c : serial) AppendCluster(c, &s);
  fp.serial = s.str();
  std::ostringstream q;
  q << cube.num_cells() << '|' << cube.ByteSize() << '|';
  const auto num_regions =
      static_cast<RegionId>(workload->regions->num_regions());
  for (RegionId region = 0; region < num_regions; ++region) {
    for (int day = 0; day < 31; ++day) {
      AppendBits(cube.RegionDaySeverity(region, day), &q);
    }
  }
  fp.cube = q.str();
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
  ASSERT_FALSE(baseline.cube.empty());

  for (const size_t perturbation : {size_t{257}, size_t{1031}, size_t{7919}}) {
    SetHashLayoutPerturbation(perturbation);
    const PipelineFingerprint run = RunPipeline();
    EXPECT_EQ(baseline.serial, run.serial)
        << "serial integration output depends on hash layout (perturbation "
        << perturbation << ")";
    EXPECT_EQ(baseline.cube, run.cube)
        << "cube severities depend on hash layout (perturbation "
        << perturbation << ")";
  }
}

}  // namespace
}  // namespace atypical
