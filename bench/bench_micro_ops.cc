// Operation-level micro-benchmarks (google-benchmark): the primitive costs
// behind Propositions 1-3 — feature merges, similarity, event retrieval
// with/without the index, cube aggregation, record codecs.
#include <benchmark/benchmark.h>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "core/merge.h"
#include "core/similarity.h"
#include "cube/measure.h"
#include "gen/workload.h"
#include "storage/format.h"
#include "util/random.h"

namespace atypical {
namespace {

FeatureVector RandomFeature(int size, uint32_t key_space, Rng& rng) {
  FeatureVector f;
  for (int i = 0; i < size; ++i) {
    f.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
          rng.Uniform(1.0, 10.0));
  }
  return f;
}

AtypicalCluster RandomCluster(int size, uint32_t key_space, Rng& rng,
                              ClusterIdGenerator* ids) {
  AtypicalCluster c;
  c.id = ids->Next();
  c.micro_ids = {c.id};
  c.spatial = RandomFeature(size, key_space, rng);
  c.temporal = RandomFeature(size, key_space, rng);
  return c;
}

void BM_FeatureVectorMerge(benchmark::State& state) {
  Rng rng(1);
  const int size = static_cast<int>(state.range(0));
  const FeatureVector a = RandomFeature(size, 4 * size, rng);
  const FeatureVector b = RandomFeature(size, 4 * size, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(FeatureVector::Merge(a, b));
  }
  state.SetItemsProcessed(state.iterations() * 2 * size);
}
BENCHMARK(BM_FeatureVectorMerge)->Arg(8)->Arg(64)->Arg(512)->Arg(4096);

void BM_Similarity(benchmark::State& state) {
  Rng rng(2);
  ClusterIdGenerator ids;
  const int size = static_cast<int>(state.range(0));
  const AtypicalCluster a = RandomCluster(size, 2 * size, rng, &ids);
  const AtypicalCluster b = RandomCluster(size, 2 * size, rng, &ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        Similarity(a, b, BalanceFunction::kArithmeticMean));
  }
}
BENCHMARK(BM_Similarity)->Arg(8)->Arg(64)->Arg(512);

void BM_MergeClusters(benchmark::State& state) {
  Rng rng(3);
  ClusterIdGenerator ids;
  const int size = static_cast<int>(state.range(0));
  const AtypicalCluster a = RandomCluster(size, 2 * size, rng, &ids);
  const AtypicalCluster b = RandomCluster(size, 2 * size, rng, &ids);
  for (auto _ : state) {
    benchmark::DoNotOptimize(MergeClusters(a, b, &ids));
  }
}
BENCHMARK(BM_MergeClusters)->Arg(8)->Arg(64)->Arg(512);

// Shared workload for retrieval/cube benchmarks.
struct RetrievalFixture {
  std::unique_ptr<Workload> workload = MakeWorkload(WorkloadScale::kTiny, 51);
  std::vector<AtypicalRecord> records =
      workload->generator->GenerateMonthAtypical(0);
};

RetrievalFixture& Fixture() {
  static RetrievalFixture* fixture = new RetrievalFixture();
  return *fixture;
}

void BM_EventRetrievalIndexed(benchmark::State& state) {
  RetrievalFixture& f = Fixture();
  std::vector<AtypicalRecord> records = f.records;
  records.resize(std::min<size_t>(records.size(), state.range(0)));
  RetrievalParams params = analytics::DefaultForestParams().retrieval;
  params.use_index = true;
  for (auto _ : state) {
    ClusterIdGenerator ids;
    benchmark::DoNotOptimize(
        RetrieveMicroClusters(records, *f.workload->sensors,
                              f.workload->gen_config.time_grid, params, &ids));
  }
  state.SetItemsProcessed(state.iterations() * records.size());
}
BENCHMARK(BM_EventRetrievalIndexed)->Arg(200)->Arg(500)->Arg(1000);

void BM_EventRetrievalBruteForce(benchmark::State& state) {
  RetrievalFixture& f = Fixture();
  std::vector<AtypicalRecord> records = f.records;
  records.resize(std::min<size_t>(records.size(), state.range(0)));
  RetrievalParams params = analytics::DefaultForestParams().retrieval;
  params.use_index = false;
  for (auto _ : state) {
    ClusterIdGenerator ids;
    benchmark::DoNotOptimize(
        RetrieveMicroClusters(records, *f.workload->sensors,
                              f.workload->gen_config.time_grid, params, &ids));
  }
  state.SetItemsProcessed(state.iterations() * records.size());
}
BENCHMARK(BM_EventRetrievalBruteForce)->Arg(200)->Arg(500)->Arg(1000);

void BM_Integration(benchmark::State& state) {
  Rng rng(4);
  ClusterIdGenerator ids;
  std::vector<AtypicalCluster> micros;
  for (int i = 0; i < state.range(0); ++i) {
    micros.push_back(RandomCluster(8, 64, rng, &ids));
  }
  const IntegrationParams params;
  for (auto _ : state) {
    ClusterIdGenerator out_ids(100000);
    benchmark::DoNotOptimize(IntegrateClusters(micros, params, &out_ids));
  }
  state.SetItemsProcessed(state.iterations() * micros.size());
}
BENCHMARK(BM_Integration)->Arg(50)->Arg(200)->Arg(800);

void BM_MeasureFromAtypical(benchmark::State& state) {
  RetrievalFixture& f = Fixture();
  for (auto _ : state) {
    benchmark::DoNotOptimize(cube::RegionDayMeasure::FromAtypical(
        f.records, *f.workload->regions, f.workload->gen_config.time_grid));
  }
  state.SetItemsProcessed(state.iterations() * f.records.size());
}
BENCHMARK(BM_MeasureFromAtypical);

void BM_MeasureF(benchmark::State& state) {
  RetrievalFixture& f = Fixture();
  const cube::RegionDayMeasure measure = cube::RegionDayMeasure::FromAtypical(
      f.records, *f.workload->regions, f.workload->gen_config.time_grid);
  std::vector<RegionId> regions;
  for (RegionId r = 0;
       r < static_cast<RegionId>(f.workload->regions->num_regions()); ++r) {
    regions.push_back(r);
  }
  const DayRange days{0, 6};
  for (auto _ : state) {
    benchmark::DoNotOptimize(measure.F(regions, days));
  }
}
BENCHMARK(BM_MeasureF);

void BM_RecordCodec(benchmark::State& state) {
  Reading r;
  r.sensor = 42;
  r.window = 12345;
  r.speed_mph = 61.5f;
  r.occupancy = 0.3f;
  r.atypical_minutes = 4.0f;
  r.true_event = 99;
  uint8_t buf[storage::kWireRecordBytes];
  for (auto _ : state) {
    storage::EncodeRecord(r, buf);
    benchmark::DoNotOptimize(storage::DecodeRecord(buf));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RecordCodec);

void BM_Crc32Block(benchmark::State& state) {
  std::vector<uint8_t> block(64 * 1024);
  Rng rng(5);
  for (uint8_t& b : block) b = static_cast<uint8_t>(rng.Next64());
  for (auto _ : state) {
    benchmark::DoNotOptimize(storage::Crc32(block.data(), block.size()));
  }
  state.SetBytesProcessed(state.iterations() * block.size());
}
BENCHMARK(BM_Crc32Block);

}  // namespace
}  // namespace atypical

BENCHMARK_MAIN();
