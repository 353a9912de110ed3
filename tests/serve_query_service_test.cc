// QueryService end-to-end: cached serving must be bit-identical to a direct
// uncached engine run on the served snapshot, across strategies and across
// epoch publishes.
#include <gtest/gtest.h>

#include <memory>

#include "analytics/report.h"
#include "serve/query_service.h"
#include "serve_test_util.h"

namespace atypical {
namespace serve {
namespace {

class QueryServiceTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = analytics::BuildContext(WorkloadScale::kTiny, 2,
                                   analytics::DefaultForestParams(), 31)
               .release();
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  std::unique_ptr<ServingForest> ServingWithMonth0() {
    auto serving = MakeServing(*ctx_, analytics::DefaultEngineOptions());
    StageMonth(*ctx_, 0, serving.get());
    serving->PublishSnapshot();
    return serving;
  }

  static analytics::ExperimentContext* ctx_;
};

analytics::ExperimentContext* QueryServiceTest::ctx_ = nullptr;

TEST_F(QueryServiceTest, CachedEqualsUncachedAcrossStrategies) {
  auto serving = ServingWithMonth0();
  QueryService service(serving.get());
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);

  for (const ServeStrategy strategy :
       {ServeStrategy::kAll, ServeStrategy::kPrune, ServeStrategy::kGuided}) {
    const ServeReply miss = service.ServeQuery(query, strategy);
    EXPECT_FALSE(miss.cache_hit) << QueryStrategyName(strategy);
    const ServeReply hit = service.ServeQuery(query, strategy);
    EXPECT_TRUE(hit.cache_hit) << QueryStrategyName(strategy);
    EXPECT_EQ(hit.result.get(), miss.result.get())
        << "a hit aliases the stored result";

    // The contract: both replies equal a fresh single-threaded uncached run
    // on exactly the snapshot they were served from.
    const QueryResult direct =
        hit.snapshot->engine.Run(query, strategy);
    ExpectBitIdentical(*miss.result, direct);
    ExpectBitIdentical(*hit.result, direct);
  }
}

TEST_F(QueryServiceTest, PublishInvalidatesByEpoch) {
  auto serving = ServingWithMonth0();
  QueryService service(serving.get());
  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);

  const ServeReply first = service.ServeQuery(query, ServeStrategy::kAll);
  ASSERT_TRUE(service.ServeQuery(query, ServeStrategy::kAll).cache_hit);

  StageMonth(*ctx_, 1, serving.get());
  serving->PublishSnapshot();

  // Same query, new epoch: the old entry cannot answer it.
  const ServeReply fresh = service.ServeQuery(query, ServeStrategy::kAll);
  EXPECT_FALSE(fresh.cache_hit);
  EXPECT_GT(fresh.snapshot->epoch, first.snapshot->epoch);
  EXPECT_GT(fresh.result->completeness.days_with_data,
            first.result->completeness.days_with_data);
  ExpectBitIdentical(*fresh.result,
                     fresh.snapshot->engine.Run(query, ServeStrategy::kAll));

  // The epoch advance lazily collected the old epoch's entries.
  EXPECT_GT(service.cache_totals().invalidations, 0u);
}

TEST_F(QueryServiceTest, EvictionAccountingUnderTinyCache) {
  auto serving = ServingWithMonth0();
  ServeOptions options;
  options.cache_entries = 2;
  QueryService service(serving.get(), options);

  for (int day = 0; day < 4; ++day) {
    AnalyticalQuery query = ctx_->WholeAreaQuery(7);
    query.days = DayRange{day, day + 1};
    service.ServeQuery(query, ServeStrategy::kAll);
  }
  const QueryResultCache::CacheTotals totals = service.cache_totals();
  EXPECT_EQ(totals.entries, 2u);
  EXPECT_EQ(totals.evictions, 2u);
  EXPECT_EQ(totals.misses, 4u);
}

}  // namespace
}  // namespace serve
}  // namespace atypical
