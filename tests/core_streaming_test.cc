// Streaming event retrieval must produce exactly the batch events
// (connected components are order-independent), while bounding open state.
#include "core/streaming.h"

#include <algorithm>
#include <set>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "gen/workload.h"
#include "util/hash_perturb.h"
#include "util/random.h"
#include "util/string_util.h"

namespace atypical {
namespace {

class StreamingTest : public ::testing::Test {
 public:
  StreamingTest()
      : workload_(MakeWorkload(WorkloadScale::kTiny, 61)),
        grid_(workload_->gen_config.time_grid),
        params_(analytics::DefaultForestParams().retrieval) {}

  // Canonical signature of a cluster set: sorted (sensor set, window set,
  // severity) triples — ids and ordering differ between batch and stream.
  static std::multiset<std::string> Signatures(
      const std::vector<AtypicalCluster>& clusters) {
    std::multiset<std::string> out;
    for (const AtypicalCluster& c : clusters) {
      std::string sig;
      for (const auto& e : c.spatial.entries()) {
        sig += StrPrintf("s%u:%.1f;", e.key, e.severity);
      }
      sig += "|";
      for (const auto& e : c.temporal.entries()) {
        sig += StrPrintf("t%u:%.1f;", e.key, e.severity);
      }
      out.insert(std::move(sig));
    }
    return out;
  }

  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
  RetrievalParams params_;
};

TEST_F(StreamingTest, MatchesBatchRetrievalOnGeneratedMonth) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  ClusterIdGenerator batch_ids(1);
  ClusterIdGenerator stream_ids(100000);
  const auto batch = RetrieveMicroClusters(records, *workload_->sensors,
                                           grid_, params_, &batch_ids);
  const auto streamed = StreamMicroClusters(records, *workload_->sensors,
                                            grid_, params_, &stream_ids);
  ASSERT_EQ(streamed.size(), batch.size());
  EXPECT_EQ(Signatures(streamed), Signatures(batch));
}

class StreamingSweepTest
    : public ::testing::TestWithParam<std::pair<double, int>> {};

TEST_P(StreamingSweepTest, MatchesBatchAcrossThresholds) {
  const auto [delta_d, delta_t] = GetParam();
  const auto workload = MakeWorkload(WorkloadScale::kTiny, 67);
  const TimeGrid grid = workload->gen_config.time_grid;
  RetrievalParams params;
  params.delta_d_miles = delta_d;
  params.delta_t_minutes = delta_t;
  const std::vector<AtypicalRecord> records =
      workload->generator->GenerateMonthAtypical(1);
  ClusterIdGenerator ids_a(1);
  ClusterIdGenerator ids_b(1);
  const auto batch = RetrieveMicroClusters(records, *workload->sensors, grid,
                                           params, &ids_a);
  const auto streamed = StreamMicroClusters(records, *workload->sensors, grid,
                                            params, &ids_b);
  EXPECT_EQ(StreamingTest::Signatures(streamed),
            StreamingTest::Signatures(batch));
}

INSTANTIATE_TEST_SUITE_P(
    Thresholds, StreamingSweepTest,
    ::testing::Values(std::pair{1.5, 15}, std::pair{1.5, 30},
                      std::pair{0.8, 15}, std::pair{3.0, 45},
                      std::pair{6.0, 80}));

TEST_F(StreamingTest, EmitsEventsAsTheyExpire) {
  // Two bursts far apart in time: the first event must be emitted before
  // the second burst's records are all in.
  const SensorId sensor = 0;
  std::vector<AtypicalCluster> emitted;
  ClusterIdGenerator ids(1);
  StreamingEventBuilder builder(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster c, uint64_t) { emitted.push_back(std::move(c)); });

  builder.Add({sensor, grid_.MakeWindow(0, 10), 5.0f, kNoEvent});
  builder.Add({sensor, grid_.MakeWindow(0, 11), 5.0f, kNoEvent});
  EXPECT_EQ(emitted.size(), 0u);
  EXPECT_EQ(builder.open_events(), 1u);

  builder.Add({sensor, grid_.MakeWindow(0, 50), 5.0f, kNoEvent});
  EXPECT_EQ(emitted.size(), 1u);  // first burst closed
  EXPECT_DOUBLE_EQ(emitted[0].severity(), 10.0);
  EXPECT_EQ(builder.open_events(), 1u);

  builder.Flush();
  EXPECT_EQ(emitted.size(), 2u);
  EXPECT_EQ(builder.open_events(), 0u);
}

TEST_F(StreamingTest, BridgingRecordMergesOpenEvents) {
  // Two sensors too far apart to relate directly, plus a bridging record in
  // between: all three must end in one event.
  SensorId a = kInvalidSensor;
  SensorId b = kInvalidSensor;
  SensorId mid = kInvalidSensor;
  for (int h = 0; h < workload_->sensors->num_highways() && mid == kInvalidSensor;
       ++h) {
    const auto& line = workload_->sensors->SensorsOnHighway(h);
    for (size_t i = 0; i + 2 < line.size(); ++i) {
      const double d02 = DistanceMiles(
          workload_->sensors->location(line[i]),
          workload_->sensors->location(line[i + 2]));
      const double d01 = DistanceMiles(
          workload_->sensors->location(line[i]),
          workload_->sensors->location(line[i + 1]));
      const double d12 = DistanceMiles(
          workload_->sensors->location(line[i + 1]),
          workload_->sensors->location(line[i + 2]));
      if (d02 >= params_.delta_d_miles && d01 < params_.delta_d_miles &&
          d12 < params_.delta_d_miles) {
        a = line[i];
        mid = line[i + 1];
        b = line[i + 2];
        break;
      }
    }
  }
  if (mid == kInvalidSensor) GTEST_SKIP() << "no suitable sensor triple";

  std::vector<AtypicalCluster> emitted;
  ClusterIdGenerator ids(1);
  StreamingEventBuilder builder(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster c, uint64_t) { emitted.push_back(std::move(c)); });
  const WindowId w = grid_.MakeWindow(0, 30);
  builder.Add({a, w, 5.0f, kNoEvent});
  builder.Add({b, w, 5.0f, kNoEvent});
  EXPECT_EQ(builder.open_events(), 2u);
  builder.Add({mid, w, 5.0f, kNoEvent});
  EXPECT_EQ(builder.open_events(), 1u);
  builder.Flush();
  ASSERT_EQ(emitted.size(), 1u);
  EXPECT_EQ(emitted[0].num_sensors(), 3);
}

TEST_F(StreamingTest, OpenStateStaysBounded) {
  // Open events never exceed what fits in the δt horizon.
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  ClusterIdGenerator ids(1);
  size_t max_open = 0;
  size_t total = 0;
  StreamingEventBuilder builder(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster, uint64_t) { ++total; });
  for (const AtypicalRecord& r : records) {
    builder.Add(r);
    max_open = std::max(max_open, builder.open_events());
  }
  builder.Flush();
  EXPECT_GT(total, 0u);
  // All concurrently-open events live within a 2·δt horizon; with tens of
  // sensors that is far below the total event count.
  EXPECT_LT(max_open, total);
  EXPECT_LT(max_open, 64u);
}

TEST_F(StreamingTest, EmptyStreamFlushesNothing) {
  ClusterIdGenerator ids(1);
  size_t emitted = 0;
  StreamingEventBuilder builder(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster, uint64_t) { ++emitted; });
  builder.Flush();
  EXPECT_EQ(emitted, 0u);
  EXPECT_EQ(builder.records_seen(), 0u);
}

TEST_F(StreamingTest, FlushEmitsOpenEventsInDeterministicClosingOrder) {
  // Three events opened in a known order and still open at end of stream:
  // Flush must emit them in that same (opening) order, every run.
  std::vector<SensorId> apart;  // pairwise too far apart to relate
  for (SensorId s = 0; s < static_cast<SensorId>(workload_->sensors->num_sensors()) &&
                       apart.size() < 3;
       ++s) {
    const bool far = std::all_of(apart.begin(), apart.end(), [&](SensorId t) {
      return workload_->sensors->Distance(s, t, params_.metric) >=
             2 * params_.delta_d_miles;
    });
    if (far) apart.push_back(s);
  }
  ASSERT_EQ(apart.size(), 3u) << "workload too small for this test";

  const WindowId w = grid_.MakeWindow(0, 30);
  std::vector<std::multiset<std::string>> runs;
  for (int run = 0; run < 2; ++run) {
    std::vector<AtypicalCluster> emitted;
    ClusterIdGenerator ids(1);
    StreamingEventBuilder builder(
        workload_->sensors.get(), grid_, params_, &ids,
        [&](AtypicalCluster c, uint64_t) { emitted.push_back(std::move(c)); });
    // Distinct severities identify which event is which.
    builder.Add({apart[0], w, 1.0f, kNoEvent});
    builder.Add({apart[1], w, 2.0f, kNoEvent});
    builder.Add({apart[2], w, 3.0f, kNoEvent});
    const size_t opened = builder.open_events();
    EXPECT_EQ(opened, 3u);
    EXPECT_EQ(builder.records_seen(), 3u);
    builder.Flush();
    ASSERT_EQ(emitted.size(), opened);
    // Closing order == opening order: severities ascend.
    for (size_t i = 1; i < emitted.size(); ++i) {
      EXPECT_LT(emitted[i - 1].severity(), emitted[i].severity());
    }
    runs.push_back(Signatures(emitted));
  }
  EXPECT_EQ(runs[0], runs[1]);
}

TEST_F(StreamingTest, FlushAccountsForEveryRecordSeen) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  size_t emitted_records = 0;
  ClusterIdGenerator ids(1);
  StreamingEventBuilder builder(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster c, uint64_t) {
        emitted_records += static_cast<size_t>(c.num_records);
      });
  for (const AtypicalRecord& r : records) builder.Add(r);
  builder.Flush();
  EXPECT_EQ(builder.records_seen(), records.size());
  EXPECT_EQ(emitted_records, records.size());
  EXPECT_EQ(builder.open_events(), 0u);
  // Flushing again is a no-op, not a re-emit.
  builder.Flush();
  EXPECT_EQ(emitted_records, records.size());
  EXPECT_EQ(builder.records_seen(), records.size());
}

TEST_F(StreamingTest, DiesOnOutOfOrderRecords) {
  ClusterIdGenerator ids(1);
  StreamingEventBuilder builder(workload_->sensors.get(), grid_, params_,
                                &ids, [](AtypicalCluster, uint64_t) {});
  builder.Add({0, grid_.MakeWindow(0, 20), 5.0f, kNoEvent});
  EXPECT_DEATH(builder.Add({0, grid_.MakeWindow(0, 19), 5.0f, kNoEvent}),
               "non-decreasing window order");
}

TEST_F(StreamingTest, MergedEventRecordOrderMatchesBatchBitwise) {
  // Regression: a bridging merge used to re-sort the combined records by
  // window only, so equal-window records interleaved across the two events
  // lost their global arrival order — and the feature sums, accumulated in
  // a different floating-point order, silently drifted from batch at the
  // bit level.  The arrival-seq sort must reproduce batch exactly.
  //
  // Road-network distances make the bridging triple constructible: three
  // consecutive sensors on one highway at mileposts m0 < m1 < m2 with
  // δd = m2 - m0 give d01, d12 < δd (related) and d02 = δd (not related,
  // the relation is strict <).
  SensorId a = kInvalidSensor;
  SensorId mid = kInvalidSensor;
  SensorId b = kInvalidSensor;
  for (int h = 0; h < workload_->sensors->num_highways(); ++h) {
    const auto& line = workload_->sensors->SensorsOnHighway(h);
    if (line.size() >= 3) {
      a = line[0];
      mid = line[1];
      b = line[2];
      break;
    }
  }
  ASSERT_NE(mid, kInvalidSensor) << "no highway with three sensors";
  RetrievalParams params = params_;
  params.metric = DistanceMetric::kRoadNetwork;
  params.delta_d_miles = workload_->sensors->sensor(b).mile_post -
                         workload_->sensors->sensor(a).mile_post;

  // Two same-window record groups interleaved in arrival order, then the
  // bridge.  The severities span ~2^40 in magnitude so double summation
  // rounds: float inputs within a narrow exponent range sum exactly in any
  // order (24-bit mantissas in a 52-bit accumulator), which would hide a
  // reorder.  With the spread, the shared window's severity sum has
  // order-dependent low bits (verified: the pre-fix window-keyed re-sort
  // fails this test).
  Rng severity_rng(1);
  const WindowId w = grid_.MakeWindow(0, 30);
  std::vector<AtypicalRecord> feed;
  for (int i = 0; i < 20; ++i) {
    feed.push_back(
        {a, w, static_cast<float>(severity_rng.Uniform(1.0, 13.0)), kNoEvent});
    feed.push_back(
        {b, w, static_cast<float>(1e-12 * severity_rng.Uniform(1.0, 10.0)),
         kNoEvent});
  }
  feed.push_back({mid, w, 5.0f, kNoEvent});

  for (const uint64_t perturbation : {uint64_t{0}, uint64_t{257},
                                      uint64_t{7919}}) {
    SetHashLayoutPerturbation(perturbation);
    ClusterIdGenerator batch_ids(1);
    const auto batch = RetrieveMicroClusters(feed, *workload_->sensors, grid_,
                                             params, &batch_ids);
    std::vector<AtypicalCluster> streamed;
    uint64_t first_seq = ~uint64_t{0};
    ClusterIdGenerator stream_ids(1);
    StreamingEventBuilder builder(
        workload_->sensors.get(), grid_, params, &stream_ids,
        [&](AtypicalCluster c, uint64_t seq) {
          streamed.push_back(std::move(c));
          first_seq = seq;
        });
    for (const AtypicalRecord& r : feed) builder.Add(r);
    builder.Flush();

    ASSERT_EQ(batch.size(), 1u) << "perturbation " << perturbation;
    ASSERT_EQ(streamed.size(), 1u) << "perturbation " << perturbation;
    // The merged event's earliest record is the very first fed record.
    EXPECT_EQ(first_seq, 0u);
    // Bit-exact feature equality, not the %.1f signature approximation.
    EXPECT_EQ(streamed[0].spatial, batch[0].spatial)
        << "perturbation " << perturbation;
    EXPECT_EQ(streamed[0].temporal, batch[0].temporal)
        << "perturbation " << perturbation;
    EXPECT_EQ(streamed[0].num_records, batch[0].num_records);
  }
  SetHashLayoutPerturbation(0);
}

TEST_F(StreamingTest, FlushAloneDoesNotRearmForANewDay) {
  // Regression for the documented misuse: Flush() clears the open events
  // but keeps the window watermark, so feeding the next day's (restarted)
  // window ids must die — Reset() is the supported path.
  ClusterIdGenerator ids(1);
  StreamingEventBuilder builder(workload_->sensors.get(), grid_, params_,
                                &ids, [](AtypicalCluster, uint64_t) {});
  builder.Add({0, grid_.MakeWindow(1, 10), 5.0f, kNoEvent});
  builder.Flush();
  EXPECT_DEATH(builder.Add({0, grid_.MakeWindow(0, 5), 5.0f, kNoEvent}),
               "non-decreasing window order");
}

TEST_F(StreamingTest, ResetServesConsecutiveDays) {
  const std::vector<AtypicalRecord> day0 =
      workload_->generator->GenerateMonthAtypical(0);
  const std::vector<AtypicalRecord> day1 =
      workload_->generator->GenerateMonthAtypical(1);

  std::vector<AtypicalCluster> emitted;
  ClusterIdGenerator ids(1);
  StreamingEventBuilder builder(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster c, uint64_t) { emitted.push_back(std::move(c)); });

  for (const AtypicalRecord& r : day0) builder.Add(r);
  builder.Reset();
  EXPECT_EQ(builder.records_seen(), 0u);
  EXPECT_EQ(builder.open_events(), 0u);
  const size_t after_day0 = emitted.size();

  // Same builder, restarted window ids: must not die, and must reproduce
  // the second stream's batch events.
  for (const AtypicalRecord& r : day1) builder.Add(r);
  builder.Flush();

  ClusterIdGenerator batch_ids(1);
  const auto batch0 = RetrieveMicroClusters(day0, *workload_->sensors, grid_,
                                            params_, &batch_ids);
  const auto batch1 = RetrieveMicroClusters(day1, *workload_->sensors, grid_,
                                            params_, &batch_ids);
  EXPECT_EQ(after_day0, batch0.size());
  EXPECT_EQ(Signatures({emitted.begin(),
                        emitted.begin() + static_cast<long>(after_day0)}),
            Signatures(batch0));
  EXPECT_EQ(Signatures({emitted.begin() + static_cast<long>(after_day0),
                        emitted.end()}),
            Signatures(batch1));
}

}  // namespace
}  // namespace atypical
