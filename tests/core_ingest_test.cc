// The ingest guard must (a) reproduce batch retrieval exactly from a stream
// permuted within its lateness horizon, (b) put every malformed record in
// exactly one quarantine counter with totals that reconcile, and (c) die
// under kStrict exactly where the raw builder would.
#include "core/ingest.h"

#include <algorithm>
#include <cmath>
#include <set>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "gen/workload.h"
#include "util/fault.h"
#include "util/string_util.h"

namespace atypical {
namespace {

class IngestTest : public ::testing::Test {
 public:
  IngestTest()
      : workload_(MakeWorkload(WorkloadScale::kTiny, 61)),
        grid_(workload_->gen_config.time_grid),
        params_(analytics::DefaultForestParams().retrieval) {}

  // Canonical signature of a cluster set (ids and ordering differ between
  // batch and stream).
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

  // Runs `records` through a guard with the given options; returns emitted
  // clusters, exposing the guard via `out_guard` when non-null.
  std::vector<AtypicalCluster> Run(const std::vector<AtypicalRecord>& records,
                                   const IngestOptions& options,
                                   IngestStats* out_stats = nullptr) {
    std::vector<AtypicalCluster> emitted;
    ClusterIdGenerator ids(1);
    RobustStreamingEventBuilder guard(
        workload_->sensors.get(), grid_, params_, &ids,
        [&](AtypicalCluster c) { emitted.push_back(std::move(c)); }, options);
    for (const AtypicalRecord& r : records) guard.Add(r);
    guard.Flush();
    if (out_stats != nullptr) *out_stats = guard.stats();
    return emitted;
  }

  std::vector<AtypicalCluster> Batch(
      const std::vector<AtypicalRecord>& records) {
    ClusterIdGenerator ids(100000);
    return RetrieveMicroClusters(records, *workload_->sensors, grid_, params_,
                                 &ids);
  }

  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
  RetrievalParams params_;
};

TEST_F(IngestTest, CleanStreamMatchesBatch) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  IngestStats stats;
  const auto clusters = Run(records, IngestOptions{}, &stats);
  EXPECT_EQ(Signatures(clusters), Signatures(Batch(records)));
  EXPECT_EQ(stats.records_in, records.size());
  EXPECT_EQ(stats.accepted, records.size());
  EXPECT_EQ(stats.quarantined(), 0u);
  EXPECT_EQ(stats.reordered, 0u);
  EXPECT_TRUE(stats.Reconciles());
}

// Acceptance invariant (b): a stream permuted within the lateness horizon
// yields, under kBuffer, micro-clusters identical to batch retrieval on the
// clean input.
TEST_F(IngestTest, PermutedWithinHorizonMatchesBatch) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  const auto batch_sigs = Signatures(Batch(records));
  for (const uint64_t seed : {3ull, 17ull, 99ull}) {
    FaultPlan plan(seed);
    IngestOptions options;
    options.policy = IngestPolicy::kBuffer;
    options.lateness_horizon_windows = 6;
    const std::vector<AtypicalRecord> permuted = plan.DelayRecords(records, 6);
    IngestStats stats;
    const auto clusters = Run(permuted, options, &stats);
    EXPECT_EQ(Signatures(clusters), batch_sigs) << "seed " << seed;
    EXPECT_EQ(stats.accepted, records.size());
    EXPECT_EQ(stats.quarantined(), 0u);
    EXPECT_GT(stats.reordered, 0u);
    EXPECT_TRUE(stats.Reconciles());
  }
}

// Acceptance invariant (c): every malformed record lands in exactly one
// quarantine counter and IngestStats totals reconcile with records fed.
TEST_F(IngestTest, MangledStreamReconcilesAndQuarantinesByCause) {
  const std::vector<AtypicalRecord> clean =
      workload_->generator->GenerateMonthAtypical(1);
  FaultPlan plan(5);
  std::vector<AtypicalRecord> feed = plan.DelayRecords(clean, 4);
  feed = plan.DuplicateRecords(std::move(feed), 0.05);
  feed = plan.CorruptRecords(std::move(feed), 0.08, grid_);

  IngestOptions options;
  options.policy = IngestPolicy::kBuffer;
  options.lateness_horizon_windows = 4;
  std::vector<AtypicalCluster> emitted;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster c) { emitted.push_back(std::move(c)); }, options);
  size_t forwarded = 0;
  guard.set_accept_tap([&](const AtypicalRecord&) { ++forwarded; });
  for (const AtypicalRecord& r : feed) {
    const QuarantineCause cause = guard.Add(r);
    // The verdict and the counters agree record by record.
    if (cause == QuarantineCause::kNone) {
      EXPECT_TRUE(guard.stats().Reconciles());
    }
  }
  guard.Flush();

  const IngestStats& stats = guard.stats();
  EXPECT_EQ(stats.records_in, feed.size());
  EXPECT_TRUE(stats.Reconciles());
  EXPECT_GT(stats.quarantined_unknown_sensor, 0u);
  EXPECT_GT(stats.quarantined_bad_severity, 0u);
  EXPECT_GT(stats.quarantined_excess_severity, 0u);
  EXPECT_GT(stats.quarantined_duplicate, 0u);
  // Every accepted record reached the inner builder after Flush.
  EXPECT_EQ(forwarded, stats.accepted);
  EXPECT_FALSE(emitted.empty());
}

TEST_F(IngestTest, EachMalformationLandsInItsOwnCounter) {
  IngestOptions options;
  options.policy = IngestPolicy::kBuffer;
  IngestStats stats;
  const WindowId w = grid_.MakeWindow(0, 10);
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float excess = static_cast<float>(grid_.window_minutes()) + 1.0f;
  const std::vector<AtypicalRecord> feed = {
      {0, w, 5.0f, kNoEvent},            // ok
      {kInvalidSensor, w, 5.0f, kNoEvent},
      {1u << 30, w, 5.0f, kNoEvent},     // out-of-range sensor id
      {1, w, nan, kNoEvent},
      {1, w, -2.0f, kNoEvent},
      {1, w, excess, kNoEvent},
      {0, w, 5.0f, kNoEvent},            // duplicate of the first
  };
  Run(feed, options, &stats);
  EXPECT_EQ(stats.records_in, feed.size());
  EXPECT_EQ(stats.accepted, 1u);
  EXPECT_EQ(stats.quarantined_unknown_sensor, 2u);
  EXPECT_EQ(stats.quarantined_bad_severity, 2u);
  EXPECT_EQ(stats.quarantined_excess_severity, 1u);
  EXPECT_EQ(stats.quarantined_duplicate, 1u);
  EXPECT_EQ(stats.quarantined_late, 0u);
  EXPECT_TRUE(stats.Reconciles());
}

TEST_F(IngestTest, BufferQuarantinesBeyondHorizonAsLate) {
  IngestOptions options;
  options.policy = IngestPolicy::kBuffer;
  options.lateness_horizon_windows = 3;
  IngestStats stats;
  const std::vector<AtypicalRecord> feed = {
      {0, 100, 5.0f, kNoEvent},
      {1, 97, 5.0f, kNoEvent},   // exactly at the horizon: admitted
      {2, 96, 5.0f, kNoEvent},   // one past the horizon: late
  };
  Run(feed, options, &stats);
  EXPECT_EQ(stats.accepted, 2u);
  EXPECT_EQ(stats.reordered, 1u);
  EXPECT_EQ(stats.quarantined_late, 1u);
  EXPECT_TRUE(stats.Reconciles());
}

TEST_F(IngestTest, ZeroHorizonDropsAnyOutOfOrderRecord) {
  IngestOptions options;
  options.policy = IngestPolicy::kBuffer;
  options.lateness_horizon_windows = 0;
  IngestStats stats;
  const std::vector<AtypicalRecord> feed = {
      {0, 100, 5.0f, kNoEvent},
      {1, 99, 5.0f, kNoEvent},   // behind the watermark: dropped
      {2, 100, 5.0f, kNoEvent},  // equal window: kept
      {3, 101, 5.0f, kNoEvent},
  };
  const auto clusters = Run(feed, options, &stats);
  EXPECT_EQ(stats.accepted, 3u);
  EXPECT_EQ(stats.quarantined_late, 1u);
  EXPECT_EQ(stats.reordered, 0u);
  EXPECT_TRUE(stats.Reconciles());
  double severity = 0;
  for (const auto& c : clusters) severity += c.severity();
  EXPECT_DOUBLE_EQ(severity, 15.0);
}

TEST_F(IngestTest, BufferedRecordsDrainOnFlush) {
  IngestOptions options;
  options.policy = IngestPolicy::kBuffer;
  options.lateness_horizon_windows = 8;
  ClusterIdGenerator ids(1);
  size_t emitted = 0;
  RobustStreamingEventBuilder guard(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster) { ++emitted; }, options);
  guard.Add({0, 100, 5.0f, kNoEvent});
  guard.Add({1, 102, 5.0f, kNoEvent});
  EXPECT_EQ(guard.buffered(), 2u);  // all within the horizon, still held
  guard.Flush();
  EXPECT_EQ(guard.buffered(), 0u);
  EXPECT_EQ(guard.open_events(), 0u);
  EXPECT_GT(emitted, 0u);
  EXPECT_EQ(guard.stats().accepted, 2u);
}

TEST_F(IngestTest, QuarantineLogRecordsCauses) {
  IngestOptions options;
  options.policy = IngestPolicy::kBuffer;
  options.lateness_horizon_windows = 0;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(
      workload_->sensors.get(), grid_, params_, &ids, [](AtypicalCluster) {},
      options);
  guard.Add({0, 100, 5.0f, kNoEvent});
  guard.Add({kInvalidSensor, 100, 5.0f, kNoEvent});
  guard.Add({1, 90, 5.0f, kNoEvent});
  ASSERT_EQ(guard.quarantine_log().size(), 2u);
  EXPECT_EQ(guard.quarantine_log()[0].cause, QuarantineCause::kUnknownSensor);
  EXPECT_EQ(guard.quarantine_log()[1].cause, QuarantineCause::kLate);
  EXPECT_EQ(guard.quarantine_log()[1].record.window, 90u);
}

TEST_F(IngestTest, StrictDiesOnMalformedRecord) {
  IngestOptions options;
  options.policy = IngestPolicy::kStrict;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(workload_->sensors.get(), grid_, params_,
                                    &ids, [](AtypicalCluster) {}, options);
  guard.Add({0, 100, 5.0f, kNoEvent});
  EXPECT_DEATH(guard.Add({kInvalidSensor, 101, 5.0f, kNoEvent}),
               "unknown_sensor");
}

TEST_F(IngestTest, StrictDiesOnOutOfOrderRecord) {
  IngestOptions options;
  options.policy = IngestPolicy::kStrict;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(workload_->sensors.get(), grid_, params_,
                                    &ids, [](AtypicalCluster) {}, options);
  guard.Add({0, 100, 5.0f, kNoEvent});
  EXPECT_DEATH(guard.Add({1, 99, 5.0f, kNoEvent}),
               "non-decreasing window order");
}

TEST_F(IngestTest, StrictCleanStreamMatchesRawBuilder) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(2);
  IngestOptions options;
  options.policy = IngestPolicy::kStrict;
  IngestStats stats;
  const auto clusters = Run(records, options, &stats);
  ClusterIdGenerator ids(1);
  const auto raw = StreamMicroClusters(records, *workload_->sensors, grid_,
                                       params_, &ids);
  EXPECT_EQ(Signatures(clusters), Signatures(raw));
  EXPECT_EQ(stats.accepted, records.size());
}

TEST_F(IngestTest, ResetServesConsecutiveDays) {
  // One guard across two feeds whose window ids restart (the worst case:
  // the exact same stream again).  Reset() must rewind the inner builder's
  // window watermark AND clear the guard's own dedup state — every re-fed
  // (window, sensor) pair is a fresh observation, not a duplicate.  Stats
  // stay cumulative across Reset().
  const std::vector<AtypicalRecord> feed =
      workload_->generator->GenerateMonthAtypical(0);

  std::vector<AtypicalCluster> emitted;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster c) { emitted.push_back(std::move(c)); });
  for (const AtypicalRecord& r : feed) guard.Add(r);
  guard.Reset();
  EXPECT_EQ(guard.buffered(), 0u);
  EXPECT_EQ(guard.open_events(), 0u);
  const size_t after_first = emitted.size();
  // Without the dedup clear every record would be quarantined as a
  // duplicate; without the watermark rewind the inner builder would die.
  for (const AtypicalRecord& r : feed) guard.Add(r);
  guard.Flush();

  EXPECT_TRUE(guard.stats().Reconciles());
  EXPECT_EQ(guard.stats().records_in, 2 * feed.size());
  EXPECT_EQ(guard.stats().accepted, 2 * feed.size());
  EXPECT_EQ(guard.stats().quarantined(), 0u);

  const auto batch_sigs = Signatures(Batch(feed));
  EXPECT_EQ(Signatures({emitted.begin(),
                        emitted.begin() + static_cast<long>(after_first)}),
            batch_sigs);
  EXPECT_EQ(Signatures({emitted.begin() + static_cast<long>(after_first),
                        emitted.end()}),
            batch_sigs);
}

}  // namespace
}  // namespace atypical
