// util/alloc_probe counts this thread's heap allocations.  The first half
// proves the counter's mechanics (single counts, nesting, zero-alloc scopes,
// thread isolation); the second half is the runtime side of the serving-
// readiness contract (DESIGN §15): the allocation budgets that
// scripts/check_effects.py grandfathers in effects_ratchet.json are pinned
// here — QueryEngine::Run stays under a named steady-state budget with a
// warm QueryScratch, and the similarity verdict on similarity-ready
// clusters allocates nothing at all.
#include "util/alloc_probe.h"

#include <iostream>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/query.h"
#include "core/similarity.h"

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
// steady state (warm QueryScratch, lazy compaction already paid,
// obs counters registered).  Everything left is O(result) answer assembly
// (measured 176-182 per run for All/Pru/Gui); the ~1.3x headroom absorbs
// library variation without letting a per-query index or a per-input-cluster
// regression slip through.
constexpr uint64_t kQueryRunSteadyStateAllocBudget = 240;

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

TEST(SimilarityAllocTest, CompactedSimilarityIsAllocationFree) {
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
  // Prepay the lazy compaction, as stored forest clusters have it prepaid.
  a.spatial.EnsureCompact();
  a.temporal.EnsureCompact();
  b.spatial.EnsureCompact();
  b.temporal.EnsureCompact();

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

}  // namespace
}  // namespace atypical
