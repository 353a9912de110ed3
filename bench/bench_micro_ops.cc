// Operation-level micro-benchmarks (google-benchmark): the primitive costs
// behind Propositions 1-3 — feature merges, similarity, event retrieval
// with/without the index, cube aggregation, epoch publish, record codecs.
#include <benchmark/benchmark.h>

#include <string>
#include <utility>
#include <vector>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "core/merge.h"
#include "core/similarity.h"
#include "cube/measure.h"
#include "gen/workload.h"
#include "serve/snapshot.h"
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

// One in-place absorb, the step Algorithm 3 repeats: a 4096-key survivor
// takes in a feature of 4096/N keys over the same key space, so about a
// quarter of the small side's keys are common.  The survivor is reset from
// a copy outside the timed region (the copy reuses its capacity), and the
// merge buffer is warm, as it is over a run of merges.
void BM_MergeFrom(benchmark::State& state) {
  constexpr int kSurvivorKeys = 4096;
  Rng rng(4);
  const int absorbed = kSurvivorKeys / static_cast<int>(state.range(0));
  const FeatureVector a = RandomFeature(kSurvivorKeys, 4 * kSurvivorKeys, rng);
  const FeatureVector b = RandomFeature(absorbed, 4 * kSurvivorKeys, rng);
  FeatureVector survivor = a;
  std::vector<FeatureVector::Entry> buf;
  survivor.MergeFrom(b, &buf);
  for (auto _ : state) {
    state.PauseTiming();
    survivor = a;
    state.ResumeTiming();
    survivor.MergeFrom(b, &buf);
    benchmark::DoNotOptimize(survivor.total());
  }
  state.SetLabel("|b| = |a|/" + std::to_string(state.range(0)));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(a.size() + b.size()));
}
BENCHMARK(BM_MergeFrom)->Arg(1)->Arg(16)->Arg(256);

// Builds one feature from `adds` keys in one of three orders, then reads its
// size, so a build that defers work to the first read pays it here too.
// Orders: 0 ascending distinct keys (every add appends); 1 window-major, a
// fixed shuffled set of 16 sensors cycled once per window, as an SF sees a
// micro-cluster's records in BuildMicroCluster; 2 uniform random keys over
// adds/4 values.
void BM_FeatureVectorAdd(benchmark::State& state) {
  Rng rng(5);
  const int order = static_cast<int>(state.range(0));
  const int adds = static_cast<int>(state.range(1));
  std::vector<uint32_t> sensors(16);
  for (uint32_t& sensor : sensors) {
    sensor = static_cast<uint32_t>(rng.UniformInt(uint64_t{4096}));
  }
  std::vector<std::pair<uint32_t, double>> seq;
  for (int i = 0; i < adds; ++i) {
    uint32_t key = static_cast<uint32_t>(i);
    if (order == 1) key = sensors[static_cast<size_t>(i) % sensors.size()];
    if (order == 2) {
      key = static_cast<uint32_t>(rng.UniformInt(uint64_t(adds / 4)));
    }
    seq.emplace_back(key, rng.Uniform(1.0, 10.0));
  }
  state.SetLabel(order == 0 ? "ascending"
                 : order == 1 ? "window-major"
                              : "random");
  for (auto _ : state) {
    FeatureVector f;
    for (const auto& [key, severity] : seq) f.Add(key, severity);
    benchmark::DoNotOptimize(f.size());
    benchmark::DoNotOptimize(f.total());
  }
  state.SetItemsProcessed(state.iterations() * adds);
}
BENCHMARK(BM_FeatureVectorAdd)
    ->ArgNames({"order", "adds"})
    ->ArgsProduct({{0, 1, 2}, {64, 1024}});

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

void BM_EventRetrieval(benchmark::State& state) {
  RetrievalFixture& f = Fixture();
  std::vector<AtypicalRecord> records = f.records;
  records.resize(std::min<size_t>(records.size(), state.range(0)));
  const RetrievalParams params = analytics::DefaultForestParams().retrieval;
  for (auto _ : state) {
    ClusterIdGenerator ids;
    benchmark::DoNotOptimize(
        RetrieveMicroClusters(records, *f.workload->sensors,
                              f.workload->gen_config.time_grid, params, &ids));
  }
  state.SetItemsProcessed(state.iterations() * records.size());
}
BENCHMARK(BM_EventRetrieval)->Arg(200)->Arg(500)->Arg(1000);

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

// One day installed and published over range(0) stored days, each holding
// a copy of one real day's leaves and a region×day row.  A publish copies
// only the changed day (DESIGN §16), so the rows should stay close.  The
// history is rebuilt, untimed, every range(0)/10 + 1 iterations so it stays
// within 10% of the nominal day count.
void BM_PublishOneDay(benchmark::State& state) {
  RetrievalFixture& f = Fixture();
  const Workload& world = *f.workload;
  const TimeGrid& grid = world.gen_config.time_grid;
  AtypicalForest month(world.sensors.get(), grid,
                       analytics::DefaultForestParams());
  month.AddRecords(f.records);
  const std::vector<AtypicalCluster>& leaves =
      month.MicrosOfDay(month.Days().front());
  const int stored = static_cast<int>(state.range(0));
  std::unique_ptr<serve::ServingForest> serving;
  int next_day = 0;
  int64_t iteration = 0;
  for (auto _ : state) {
    if (iteration++ % (stored / 10 + 1) == 0) {
      state.PauseTiming();
      serving = std::make_unique<serve::ServingForest>(
          world.sensors.get(), world.regions.get(), grid,
          analytics::DefaultForestParams(), analytics::DefaultEngineOptions());
      std::vector<AtypicalRecord> records;
      for (next_day = 0; next_day < stored; ++next_day) {
        serving->staging_forest()->InstallDay(next_day, leaves);
        records.push_back(AtypicalRecord{0, grid.MakeWindow(next_day, 0),
                                         1.0f});
      }
      serving->staging_cube()->MergeFrom(
          cube::RegionDayMeasure::FromAtypical(records, *world.regions, grid));
      serving->PublishSnapshot();
      state.ResumeTiming();
    }
    serving->staging_forest()->InstallDay(next_day++, leaves);
    benchmark::DoNotOptimize(serving->PublishSnapshot());
  }
  state.counters["leaves_per_day"] = static_cast<double>(leaves.size());
}
BENCHMARK(BM_PublishOneDay)->Arg(30)->Arg(300)->Arg(3000);

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
