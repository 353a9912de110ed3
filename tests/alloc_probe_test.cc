// util/alloc_probe counts this thread's heap allocations.  The first half
// proves the counter's mechanics (single counts, nesting, zero-alloc scopes,
// thread isolation); the second half is the runtime side of the serving-
// readiness contract (DESIGN §15): the allocation budgets that
// scripts/check_effects.py grandfathers in effects_ratchet.json are pinned
// here — QueryEngine::Run stays under a named steady-state budget with a
// warm QueryScratch, the similarity verdict on similarity-ready clusters
// allocates nothing at all, and a publish allocates for the days that
// changed, not for the stored history (DESIGN §16).  The ingest guard's
// state is pinned too: a warm guard allocates nothing of its own per
// record, and its memory does not grow with the lateness horizon.
#include "util/alloc_probe.h"

#include <iostream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/ingest.h"
#include "core/query.h"
#include "core/similarity.h"
#include "core/temporal_key.h"
#include "gen/workload.h"
#include "serve/snapshot.h"
#include "util/fault.h"

namespace atypical {
namespace {

// One observable heap allocation.  The volatile pointer defeats heap
// elision: the compiler may otherwise remove a new/delete pair whose
// pointer never escapes, and the probe would count nothing.
void HeapAlloc(int value) {
  int* volatile p = new int(value);
  delete p;
}

TEST(AllocProbeTest, CountsASingleAllocation) {
  util::AllocProbe probe;
  int* volatile p = new int(7);
  const uint64_t after_new = probe.Count();
  delete p;
  const uint64_t after_delete = probe.Count();
  EXPECT_EQ(after_new, 1u);
  EXPECT_EQ(after_delete, 1u);  // frees are not allocations
}

TEST(AllocProbeTest, ProbesNest) {
  util::AllocProbe outer;
  HeapAlloc(1);
  util::AllocProbe inner;
  HeapAlloc(2);
  const uint64_t inner_count = inner.Count();
  const uint64_t outer_count = outer.Count();
  EXPECT_EQ(inner_count, 1u);
  EXPECT_EQ(outer_count, 2u);  // the inner probe's window is included
}

TEST(AllocProbeTest, HeapFreeScopeCountsZero) {
  volatile int x = 3;
  util::AllocProbe probe;
  int acc = 0;
  for (int i = 0; i < 100; ++i) acc += x * i;
  const uint64_t count = probe.Count();
  EXPECT_EQ(count, 0u);
  EXPECT_GT(acc, 0);
}

TEST(AllocProbeTest, CountsRequestedBytes) {
  util::AllocProbe probe;
  char* volatile p = new char[1000];
  delete[] p;
  const uint64_t bytes = probe.Bytes();
  EXPECT_EQ(bytes, 1000u);  // frees do not subtract
}

TEST(AllocProbeTest, ReservedCapacityIsFree) {
  std::vector<int> v;
  v.reserve(8);
  util::AllocProbe probe;
  for (int i = 0; i < 8; ++i) v.push_back(i);
  const uint64_t within_capacity = probe.Count();
  v.push_back(8);  // forces regrowth
  const uint64_t after_growth = probe.Count();
  EXPECT_EQ(within_capacity, 0u);
  EXPECT_GE(after_growth, 1u);
}

TEST(AllocProbeTest, OtherThreadsAllocationsAreInvisible) {
  // Two identical launches differing only in how much the worker thread
  // allocates; the launching thread's own delta (thread bookkeeping) must
  // not scale with the worker's allocation count.
  auto launch = [](int allocs) {
    util::AllocProbe probe;
    std::thread worker([allocs] {
      for (int i = 0; i < allocs; ++i) HeapAlloc(i);
    });
    worker.join();
    return probe.Count();
  };
  const uint64_t small = launch(1);
  const uint64_t large = launch(4096);
  EXPECT_LT(large, small + 64);
}

// ---- serving-readiness budgets (DESIGN §15) --------------------------------

// The named budget behind the ratchet's (QueryEngine::Run, allocates)
// entry: heap allocations of one Run() on the kTiny 3-day workload at
// steady state (warm QueryScratch, obs counters registered).  Everything left is O(result) answer assembly:
// three allocations per surviving candidate's copy plus integration output
// (measured 118/115/124 per run for All/Pru/Gui, of which 9 trim the
// vectors of merged survivors to their entries and 6 grow SF's and TF's
// separate merge buffers; 121/118/127 when every
// Algorithm 3 merge built a new cluster instead of absorbing in place, and
// 179/179/185 when prepare still copied every in-range micro before
// filtering).  The ~1.15x headroom absorbs library variation without
// letting a per-merge allocation, a per-query index or a copy of pruned
// candidates slip back in.
constexpr uint64_t kQueryRunSteadyStateAllocBudget = 140;

class ServingBudgetTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = analytics::BuildContext(WorkloadScale::kTiny, 3,
                                   analytics::DefaultForestParams(), 29)
               .release();
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  QueryEngine Engine(QueryEngineOptions options = {}) {
    options.integration = ctx_->forest_params.integration;
    return ctx_->MakeEngine(options);
  }

  static analytics::ExperimentContext* ctx_;
};

analytics::ExperimentContext* ServingBudgetTest::ctx_ = nullptr;

TEST_F(ServingBudgetTest, QueryRunSteadyStateStaysWithinBudget) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(3);
  const QueryEngine engine = Engine();
  for (const QueryStrategy strategy :
       {QueryStrategy::kAll, QueryStrategy::kPrune, QueryStrategy::kGuided}) {
    QueryScratch scratch;
    // Cold call: fresh scratch, first-touch lazy work.
    util::AllocProbe cold_probe;
    const QueryResult cold = engine.Run(query, strategy, &scratch);
    const uint64_t cold_count = cold_probe.Count();
    // Warm-up a second time so every reusable buffer has reached steady
    // state, then measure.
    const QueryResult warm = engine.Run(query, strategy, &scratch);
    util::AllocProbe probe;
    const QueryResult steady = engine.Run(query, strategy, &scratch);
    const uint64_t steady_count = probe.Count();
    EXPECT_EQ(steady.clusters.size(), warm.clusters.size());
    EXPECT_EQ(steady.clusters.size(), cold.clusters.size());
    EXPECT_GT(steady_count, 0u);  // O(result) assembly is real
    EXPECT_LE(steady_count, cold_count);
    EXPECT_LE(steady_count, kQueryRunSteadyStateAllocBudget)
        << QueryStrategyName(strategy);
    std::cout << "alloc_probe " << QueryStrategyName(strategy)
              << ": cold=" << cold_count << " steady=" << steady_count
              << " budget=" << kQueryRunSteadyStateAllocBudget << "\n";
  }
}

TEST_F(ServingBudgetTest, ScratchReuseBeatsPerCallScratch) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(3);
  const QueryEngine engine = Engine();
  QueryScratch scratch;
  const QueryResult warm1 = engine.Run(query, QueryStrategy::kAll, &scratch);
  const QueryResult warm2 = engine.Run(query, QueryStrategy::kAll, &scratch);
  EXPECT_EQ(warm1.clusters.size(), warm2.clusters.size());

  // The convenience overload builds a fresh QueryScratch per call; the
  // serving overload with a warm scratch must allocate strictly less.
  util::AllocProbe fresh_probe;
  const QueryResult fresh = engine.Run(query, QueryStrategy::kAll);
  const uint64_t fresh_count = fresh_probe.Count();
  util::AllocProbe reused_probe;
  const QueryResult reused = engine.Run(query, QueryStrategy::kAll, &scratch);
  const uint64_t reused_count = reused_probe.Count();
  EXPECT_EQ(fresh.clusters.size(), reused.clusters.size());
  EXPECT_LT(reused_count, fresh_count);
}

TEST(SimilarityAllocTest, SimilarityIsAllocationFree) {
  AtypicalCluster a;
  AtypicalCluster b;
  for (uint32_t k = 0; k < 40; ++k) {
    a.spatial.Add(k, 1.0 + k);
    a.temporal.Add(k % 8, 2.0);
  }
  for (uint32_t k = 20; k < 60; ++k) {
    b.spatial.Add(k, 0.5 + k);
    b.temporal.Add(k % 6, 1.0);
  }
  util::AllocProbe probe;
  double sum = 0.0;
  for (const BalanceFunction g :
       {BalanceFunction::kMax, BalanceFunction::kMin,
        BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
        BalanceFunction::kHarmonicMean}) {
    sum += Similarity(a, b, g);
  }
  const uint64_t count = probe.Count();
  EXPECT_EQ(count, 0u);
  EXPECT_GT(sum, 0.0);  // the clusters overlap, so the scans did real work
}

TEST(RekeyAllocTest, SingleDayMicroCostsThreeAllocations) {
  // SF, the re-keyed TF and the micro ids: the absolute TF is never copied
  // and the re-keyed one never regrows.
  const TimeGrid grid(15);
  AtypicalCluster micro;
  micro.id = 5;
  micro.micro_ids = {5};
  for (uint32_t s = 0; s < 12; ++s) micro.spatial.Add(s, 1.0 + s);
  for (int w = 30; w < 50; ++w) {
    micro.temporal.Add(static_cast<uint32_t>(grid.MakeWindow(3, w)), 0.5 * w);
  }

  util::AllocProbe probe;
  const AtypicalCluster rekeyed =
      WithTemporalKeyMode(micro, grid, TemporalKeyMode::kTimeOfDay);
  const uint64_t count = probe.Count();
  EXPECT_EQ(count, 3u);
  EXPECT_EQ(rekeyed.temporal.size(), 20u);
}

// ---- publish cost (DESIGN §16) --------------------------------------------

// Heap allocations a publish may make per stored day that did not change:
// the epoch forest's one map node for the day (its leaf-block pointer and
// mutation version; measured exactly 1), plus one spare.  Deep-copying an
// unchanged day would cost two allocations for the block and three per
// cluster (two feature vectors and the micro ids), 2 + 3 * kClustersPerDay
// = 14 here.
constexpr uint64_t kPublishAllocsPerStoredDay = 2;
constexpr int kClustersPerDay = 4;

// A day of kClustersPerDay one-record leaves.
std::vector<AtypicalCluster> SyntheticDay(int day, const TimeGrid& grid) {
  std::vector<AtypicalCluster> micros(kClustersPerDay);
  for (int i = 0; i < kClustersPerDay; ++i) {
    AtypicalCluster& c = micros[i];
    c.id = static_cast<ClusterId>(day) * kClustersPerDay + i + 1;
    c.micro_ids = {c.id};
    c.spatial.Add(static_cast<uint32_t>(i), 1.0);
    c.temporal.Add(static_cast<uint32_t>(grid.MakeWindow(day, i)), 1.0);
    c.first_day = c.last_day = day;
    c.num_records = 1;
  }
  return micros;
}

// Allocations of the publish that follows `history` published days and
// one newly installed day (with its region×day row).
uint64_t PublishAllocs(const Workload& world, int history) {
  const TimeGrid& grid = world.gen_config.time_grid;
  serve::ServingForest serving(world.sensors.get(), world.regions.get(), grid,
                               analytics::DefaultForestParams(),
                               analytics::DefaultEngineOptions());
  auto stage = [&](int first_day, int last_day) {
    std::vector<AtypicalRecord> records;
    for (int day = first_day; day <= last_day; ++day) {
      serving.staging_forest()->InstallDay(day, SyntheticDay(day, grid));
      records.push_back(AtypicalRecord{0, grid.MakeWindow(day, 0), 1.0f});
    }
    serving.staging_cube()->MergeFrom(
        cube::RegionDayMeasure::FromAtypical(records, *world.regions, grid));
  };
  stage(0, history - 1);
  serving.PublishSnapshot();
  stage(history, history);
  util::AllocProbe probe;
  serving.PublishSnapshot();
  return probe.Count();
}

TEST(PublishAllocTest, PublishAllocatesPerChangedDay) {
  const std::unique_ptr<Workload> world =
      MakeWorkload(WorkloadScale::kTiny, 29);
  const uint64_t short_history = PublishAllocs(*world, 30);
  const uint64_t long_history = PublishAllocs(*world, 300);
  std::cout << "alloc_probe publish: 30 days=" << short_history
            << " 300 days=" << long_history << "\n";
  EXPECT_GE(long_history, short_history);
  EXPECT_LE(long_history - short_history, kPublishAllocsPerStoredDay * 270);
  // The one changed day is copied in either case.
  EXPECT_GE(short_history, uint64_t{2 + 3 * kClustersPerDay});
}

// ---- ingest guard (DESIGN §7) ---------------------------------------------

class IngestAllocTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    world_ = MakeWorkload(WorkloadScale::kSmall, 29).release();
    month_ = new std::vector<AtypicalRecord>(
        world_->generator->GenerateMonthAtypical(0));
  }
  static void TearDownTestSuite() {
    delete month_;
    delete world_;
    month_ = nullptr;
    world_ = nullptr;
  }

  static const TimeGrid& grid() { return world_->gen_config.time_grid; }

  // The records of `day`, delayed within the default horizon, duplicated
  // and corrupted (a `corrupt_rate` share of them).
  static std::vector<AtypicalRecord> MangledDay(int day, uint64_t seed,
                                                double corrupt_rate = 0.02) {
    std::vector<AtypicalRecord> records;
    for (const AtypicalRecord& r : *month_) {
      if (grid().DayOfWindow(r.window) == day) records.push_back(r);
    }
    FaultPlan plan(seed);
    records = plan.DelayRecords(std::move(records),
                                IngestOptions{}.lateness_horizon_windows);
    records = plan.DuplicateRecords(std::move(records), 0.05);
    return plan.CorruptRecords(std::move(records), corrupt_rate, grid());
  }

  static RobustStreamingEventBuilder MakeGuard(ClusterIdGenerator* ids,
                                               const IngestOptions& options) {
    return RobustStreamingEventBuilder(
        world_->sensors.get(), grid(),
        analytics::DefaultForestParams().retrieval, ids,
        [](AtypicalCluster, uint64_t) {}, options);
  }

  static Workload* world_;
  static std::vector<AtypicalRecord>* month_;
};

Workload* IngestAllocTest::world_ = nullptr;
std::vector<AtypicalRecord>* IngestAllocTest::month_ = nullptr;

TEST_F(IngestAllocTest, GuardAddsNoSteadyStateAllocations) {
  // Quarantine-heavy days: the warm day fills the quarantine log, so the
  // measured day quarantines into a full one.
  const std::vector<AtypicalRecord> warm_day = MangledDay(1, 3, 0.5);
  const std::vector<AtypicalRecord> day = MangledDay(2, 4, 0.5);
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard = MakeGuard(&ids, IngestOptions{});
  std::vector<AtypicalRecord> released;
  released.reserve(warm_day.size() + day.size());
  guard.set_accept_tap(
      [&released](const AtypicalRecord& r) { released.push_back(r); });
  for (const AtypicalRecord& r : warm_day) guard.Add(r);
  guard.Reset();
  const size_t warm_released = released.size();
  const uint64_t warm_quarantined = guard.stats().quarantined();
  ASSERT_GT(warm_quarantined, guard.quarantine_log().size());

  util::AllocProbe guard_probe;
  for (const AtypicalRecord& r : day) guard.Add(r);
  guard.Flush();
  const uint64_t guard_allocs = guard_probe.Count();

  // A bare builder warmed the same way, fed the records the guard released.
  StreamingEventBuilder builder(world_->sensors.get(), grid(),
                                analytics::DefaultForestParams().retrieval,
                                &ids, [](AtypicalCluster, uint64_t) {});
  for (size_t i = 0; i < warm_released; ++i) builder.Add(released[i]);
  builder.Reset();
  util::AllocProbe builder_probe;
  for (size_t i = warm_released; i < released.size(); ++i) {
    builder.Add(released[i]);
  }
  builder.Flush();
  const uint64_t builder_allocs = builder_probe.Count();
  const uint64_t quarantined = guard.stats().quarantined() - warm_quarantined;
  std::cout << "alloc_probe ingest: records=" << day.size()
            << " quarantined=" << quarantined << " guard=" << guard_allocs
            << " bare builder=" << builder_allocs << "\n";
  EXPECT_GT(builder_allocs, 0u);  // building the day's clusters is real
  EXPECT_GT(quarantined, day.size() / 3);
  // A warm guard adds nothing: its pool, slots and full quarantine ring are
  // reused.  A node per accepted record (std::multimap/std::set) would add
  // about 2 * day.size(), a std::deque log a block per 16 quarantines.
  EXPECT_LE(guard_allocs, builder_allocs);
}

TEST_F(IngestAllocTest, GuardMemoryDoesNotGrowWithTheHorizon) {
  // A guard sized by its horizon would ask for about 2^20 slots here.  At
  // INT_MAX that would be about 100 GB, so that value is not tried.
  auto day_bytes = [](int horizon) {
    util::AllocProbe probe;
    ClusterIdGenerator ids(1);
    RobustStreamingEventBuilder guard =
        MakeGuard(&ids, IngestOptions{.lateness_horizon_windows = horizon});
    for (const AtypicalRecord& r : MangledDay(1, 3)) guard.Add(r);
    guard.Flush();
    return probe.Bytes();
  };
  const uint64_t short_horizon = day_bytes(4);
  const uint64_t long_horizon = day_bytes(1 << 20);
  std::cout << "alloc_probe ingest bytes: horizon 4=" << short_horizon
            << " horizon 2^20=" << long_horizon << "\n";
  EXPECT_LT(long_horizon, short_horizon + (uint64_t{1} << 20));
}

}  // namespace
}  // namespace atypical
