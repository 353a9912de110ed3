// QueryService end-to-end: a served answer must be bit-identical to a
// direct engine run on the served snapshot, across strategies and across
// epoch publishes; serving and publishing leave their counters behind.
#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <string>

#include "analytics/report.h"
#include "obs/snapshot.h"
#include "obs/stats.h"
#include "serve/query_service.h"
#include "serve_test_util.h"

namespace atypical {
namespace serve {
namespace {

uint64_t HistogramCount(const obs::StatsSnapshot& snapshot,
                        const std::string& name) {
  for (const obs::StatsSnapshot::HistogramData& h : snapshot.histograms) {
    if (h.name == name) return h.count;
  }
  return 0;
}

int64_t GaugeValue(const obs::StatsSnapshot& snapshot,
                   const std::string& name) {
  for (const auto& [gauge, value] : snapshot.gauges) {
    if (gauge == name) return value;
  }
  return 0;
}

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

TEST_F(QueryServiceTest, ServedEqualsDirectAcrossStrategies) {
  auto serving = ServingWithMonth0();
  QueryService service(serving.get());
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);

  for (const ServeStrategy strategy :
       {ServeStrategy::kAll, ServeStrategy::kPrune, ServeStrategy::kGuided}) {
    const ServeReply reply = service.ServeQuery(query, strategy);
    ASSERT_NE(reply.result, nullptr) << QueryStrategyName(strategy);
    ASSERT_NE(reply.snapshot, nullptr) << QueryStrategyName(strategy);
    // The contract: the reply equals a direct single-threaded run on
    // exactly the snapshot it was served from.
    ExpectBitIdentical(*reply.result,
                       reply.snapshot->engine.Run(query, strategy));
  }
}

TEST_F(QueryServiceTest, PublishIsVisibleToNextRequest) {
  auto serving = ServingWithMonth0();
  QueryService service(serving.get());
  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);

  const obs::StatsSnapshot before_serve = obs::Registry()->Snapshot();
  const ServeReply first = service.ServeQuery(query, ServeStrategy::kAll);
  const obs::StatsSnapshot after_serve = obs::Registry()->Snapshot();

  StageMonth(*ctx_, 1, serving.get());
  const uint64_t epoch = serving->PublishSnapshot()->epoch;
  const obs::StatsSnapshot after_publish = obs::Registry()->Snapshot();

  // Same query, next request: it sees the new epoch and its extra data.
  const ServeReply fresh = service.ServeQuery(query, ServeStrategy::kAll);
  EXPECT_EQ(fresh.snapshot->epoch, epoch);
  EXPECT_GT(fresh.snapshot->epoch, first.snapshot->epoch);
  EXPECT_GT(fresh.result->completeness.days_with_data,
            first.result->completeness.days_with_data);
  ExpectBitIdentical(*fresh.result,
                     fresh.snapshot->engine.Run(query, ServeStrategy::kAll));

  // One request and one publish each leave exactly one mark.
  EXPECT_EQ(after_serve.CounterValue("serve.requests") -
                before_serve.CounterValue("serve.requests"),
            1u);
  EXPECT_EQ(HistogramCount(after_serve, "serve.request_seconds") -
                HistogramCount(before_serve, "serve.request_seconds"),
            1u);
  EXPECT_EQ(after_publish.CounterValue("serve.snapshot.publishes") -
                after_serve.CounterValue("serve.snapshot.publishes"),
            1u);
  EXPECT_EQ(GaugeValue(after_publish, "serve.snapshot.epoch"),
            static_cast<int64_t>(epoch));
}

}  // namespace
}  // namespace serve
}  // namespace atypical
