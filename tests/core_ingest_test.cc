// The ingest guard must (a) reproduce batch retrieval exactly from a stream
// permuted within its lateness horizon, (b) put every malformed record in
// exactly one quarantine counter with totals that reconcile, (c) pass a
// clean stream through exactly as the raw builder would, and (d) match the
// literal multimap/set guard in ingest_reference.h on every observable,
// call by call.
#include "core/ingest.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <set>
#include <tuple>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "gen/workload.h"
#include "util/fault.h"
#include "ingest_reference.h"
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
        [&](AtypicalCluster c, uint64_t) { emitted.push_back(std::move(c)); },
        options);
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

// At the default horizon and at horizon 0, where each record is released as
// it is accepted, a clean stream yields the events of batch retrieval and of
// the raw builder.
TEST_F(IngestTest, CleanStreamMatchesBatch) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  ClusterIdGenerator ids(1);
  const auto raw = StreamMicroClusters(records, *workload_->sensors, grid_,
                                       params_, &ids);
  EXPECT_EQ(Signatures(raw), Signatures(Batch(records)));
  for (const int horizon : {IngestOptions{}.lateness_horizon_windows, 0}) {
    SCOPED_TRACE(StrPrintf("horizon %d", horizon));
    IngestStats stats;
    const auto clusters = Run(
        records, IngestOptions{.lateness_horizon_windows = horizon}, &stats);
    EXPECT_EQ(Signatures(clusters), Signatures(raw));
    EXPECT_EQ(stats.records_in, records.size());
    EXPECT_EQ(stats.accepted, records.size());
    EXPECT_EQ(stats.quarantined(), 0u);
    EXPECT_EQ(stats.reordered, 0u);
    EXPECT_TRUE(stats.Reconciles());
  }
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
  options.lateness_horizon_windows = 4;
  std::vector<AtypicalCluster> emitted;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster c, uint64_t) { emitted.push_back(std::move(c)); },
      options);
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
  Run(feed, IngestOptions{}, &stats);
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
  options.lateness_horizon_windows = 8;
  ClusterIdGenerator ids(1);
  size_t emitted = 0;
  RobustStreamingEventBuilder guard(
      workload_->sensors.get(), grid_, params_, &ids,
      [&](AtypicalCluster, uint64_t) { ++emitted; }, options);
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
  options.lateness_horizon_windows = 0;
  ClusterIdGenerator ids(1);
  RobustStreamingEventBuilder guard(
      workload_->sensors.get(), grid_, params_, &ids,
      [](AtypicalCluster, uint64_t) {}, options);
  guard.Add({0, 100, 5.0f, kNoEvent});
  guard.Add({kInvalidSensor, 100, 5.0f, kNoEvent});
  guard.Add({1, 90, 5.0f, kNoEvent});
  ASSERT_EQ(guard.quarantine_log().size(), 2u);
  EXPECT_EQ(guard.quarantine_log()[0].cause, QuarantineCause::kUnknownSensor);
  EXPECT_EQ(guard.quarantine_log()[1].cause, QuarantineCause::kLate);
  EXPECT_EQ(guard.quarantine_log()[1].record.window, 90u);
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
      [&](AtypicalCluster c, uint64_t) { emitted.push_back(std::move(c)); });
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

// ---- lockstep against the literal multimap/set guard ----------------------

// Every field of a record, severity by its bits (quarantined records may
// carry NaN).
std::tuple<SensorId, WindowId, uint32_t, EventId> Bits(const AtypicalRecord& r) {
  return {r.sensor, r.window, std::bit_cast<uint32_t>(r.severity_minutes),
          r.true_event};
}

// What a guard showed the outside world: the accept tap's sequence and the
// emitted clusters with their first-record seqs.
struct Observed {
  std::vector<AtypicalRecord> released;
  std::vector<std::pair<AtypicalCluster, uint64_t>> emitted;
};

// Drives RobustStreamingEventBuilder and reference::RobustStreamingEventBuilder
// with the same calls and compares, after each one, the verdict,
// buffered(), the new tap records and clusters, every IngestStats counter
// and the quarantine log.  Each guard has its own id generator, so equal
// cluster ids mean equal emit order.
class Lockstep {
 public:
  Lockstep(const Workload& world, const TimeGrid& grid,
           const RetrievalParams& params, const IngestOptions& options)
      : product_ids_(1),
        reference_ids_(1),
        product_(world.sensors.get(), grid, params, &product_ids_,
                 Emit(&product_seen_), options),
        reference_(world.sensors.get(), grid, params, &reference_ids_,
                   Emit(&reference_seen_), options) {
    product_.set_accept_tap(
        [this](const AtypicalRecord& r) { product_seen_.released.push_back(r); });
    reference_.set_accept_tap([this](const AtypicalRecord& r) {
      reference_seen_.released.push_back(r);
    });
  }

  QuarantineCause Add(const AtypicalRecord& record) {
    const QuarantineCause cause = product_.Add(record);
    EXPECT_EQ(cause, reference_.Add(record))
        << "sensor=" << record.sensor << " window=" << record.window;
    Compare();
    return cause;
  }
  void Flush() {
    product_.Flush();
    reference_.Flush();
    Compare();
    CompareLogs();
  }
  void Reset() {
    product_.Reset();
    reference_.Reset();
    Compare();
  }

  const RobustStreamingEventBuilder& product() const { return product_; }
  const std::vector<AtypicalRecord>& released() const {
    return product_seen_.released;
  }

 private:
  static StreamingEventBuilder::EmitSeqFn Emit(Observed* seen) {
    return [seen](AtypicalCluster c, uint64_t seq) {
      seen->emitted.emplace_back(std::move(c), seq);
    };
  }

  void Compare() {
    ASSERT_EQ(product_.buffered(), reference_.buffered());
    ASSERT_EQ(product_.open_events(), reference_.open_events());
    ASSERT_EQ(product_seen_.released.size(), reference_seen_.released.size());
    for (; compared_released_ < product_seen_.released.size();
         ++compared_released_) {
      ASSERT_EQ(Bits(product_seen_.released[compared_released_]),
                Bits(reference_seen_.released[compared_released_]));
    }
    ASSERT_EQ(product_seen_.emitted.size(), reference_seen_.emitted.size());
    for (; compared_emitted_ < product_seen_.emitted.size();
         ++compared_emitted_) {
      const auto& [a, a_seq] = product_seen_.emitted[compared_emitted_];
      const auto& [b, b_seq] = reference_seen_.emitted[compared_emitted_];
      ASSERT_EQ(a_seq, b_seq);
      ASSERT_EQ(a.id, b.id);
      ASSERT_EQ(a.micro_ids, b.micro_ids);
      ASSERT_EQ(a.num_records, b.num_records);
      ASSERT_EQ(a.first_day, b.first_day);
      ASSERT_EQ(a.last_day, b.last_day);
      ASSERT_EQ(a.dominant_true_event, b.dominant_true_event);
      ASSERT_EQ(a.spatial.entries(), b.spatial.entries());
      ASSERT_EQ(a.temporal.entries(), b.temporal.entries());
    }
    const IngestStats& p = product_.stats();
    const IngestStats& r = reference_.stats();
    ASSERT_EQ(p.records_in, r.records_in);
    ASSERT_EQ(p.accepted, r.accepted);
    ASSERT_EQ(p.reordered, r.reordered);
    ASSERT_EQ(p.quarantined_unknown_sensor, r.quarantined_unknown_sensor);
    ASSERT_EQ(p.quarantined_bad_severity, r.quarantined_bad_severity);
    ASSERT_EQ(p.quarantined_excess_severity, r.quarantined_excess_severity);
    ASSERT_EQ(p.quarantined_duplicate, r.quarantined_duplicate);
    ASSERT_EQ(p.quarantined_late, r.quarantined_late);
    const std::vector<RobustStreamingEventBuilder::Quarantined> log =
        product_.quarantine_log();
    ASSERT_EQ(log.size(), reference_.quarantine_log().size());
    if (!log.empty()) {
      ASSERT_EQ(log.back().cause, reference_.quarantine_log().back().cause);
      ASSERT_EQ(Bits(log.back().record),
                Bits(reference_.quarantine_log().back().record));
    }
  }

  // The whole quarantine log, oldest first, past the ring's wrap.
  void CompareLogs() {
    const std::vector<RobustStreamingEventBuilder::Quarantined> log =
        product_.quarantine_log();
    ASSERT_EQ(log.size(), reference_.quarantine_log().size());
    for (size_t i = 0; i < log.size(); ++i) {
      ASSERT_EQ(log[i].cause, reference_.quarantine_log()[i].cause) << i;
      ASSERT_EQ(Bits(log[i].record), Bits(reference_.quarantine_log()[i].record))
          << i;
    }
  }

  ClusterIdGenerator product_ids_;
  ClusterIdGenerator reference_ids_;
  Observed product_seen_;
  Observed reference_seen_;
  RobustStreamingEventBuilder product_;
  reference::RobustStreamingEventBuilder reference_;
  size_t compared_released_ = 0;
  size_t compared_emitted_ = 0;
};

// Feeds `feed` in lockstep with a Flush() a third of the way in and a
// Reset() two thirds in.  Between the two, records below the flush-time
// watermark are skipped (the inner builder would die on them, in both
// guards).  Repeats of already-released records inside the dedup range are
// fed instead: Flush keeps the dedup state, so each is a duplicate.
void FeedWithFlushAndReset(Lockstep* step,
                           const std::vector<AtypicalRecord>& feed,
                           int horizon) {
  const size_t flush_at = feed.size() / 3;
  const size_t reset_at = 2 * feed.size() / 3;
  int64_t watermark = -1;
  for (size_t i = 0; i < feed.size(); ++i) {
    if (i == flush_at) {
      step->Flush();
      const std::vector<AtypicalRecord> released = step->released();
      int repeats = 0;
      for (auto it = released.rbegin(); it != released.rend() && repeats < 8;
           ++it) {
        if (it->window + int64_t{horizon} < watermark) break;
        EXPECT_EQ(step->Add(*it), QuarantineCause::kDuplicate);
        ++repeats;
      }
    }
    if (i == reset_at) {
      step->Reset();
      watermark = -1;
    }
    if (i >= flush_at && i < reset_at && feed[i].window < watermark) continue;
    if (step->Add(feed[i]) == QuarantineCause::kNone) {
      watermark = std::max<int64_t>(watermark, feed[i].window);
    }
    if (::testing::Test::HasFatalFailure()) return;
  }
  step->Flush();
}

TEST_F(IngestTest, BufferMatchesReferenceGuardOnMangledFeeds) {
  // Four months of absolute windows, still in window order.
  std::vector<AtypicalRecord> clean;
  for (int month = 0; month < 4; ++month) {
    const std::vector<AtypicalRecord> records =
        workload_->generator->GenerateMonthAtypical(month);
    clean.insert(clean.end(), records.begin(), records.end());
  }
  for (const uint64_t seed : {1ull, 5ull, 9ull, 23ull}) {
    FaultPlan plan(seed);
    std::vector<AtypicalRecord> feed = plan.DelayRecords(clean, 4);
    feed = plan.DuplicateRecords(std::move(feed), 0.05);
    feed = plan.CorruptRecords(std::move(feed), 0.05, grid_);
    for (const int horizon : {0, 1, 4, 13}) {
      SCOPED_TRACE(StrPrintf("seed %llu horizon %d",
                             static_cast<unsigned long long>(seed), horizon));
      Lockstep step(*workload_, grid_, params_,
                    IngestOptions{.lateness_horizon_windows = horizon});
      FeedWithFlushAndReset(&step, feed, horizon);
      if (HasFatalFailure()) return;
      const IngestStats& stats = step.product().stats();
      EXPECT_GT(stats.quarantined_duplicate, 0u);
      EXPECT_EQ(stats.reordered > 0, horizon > 0);
      EXPECT_EQ(stats.quarantined_late > 0, horizon < 4);
    }
  }
}

TEST_F(IngestTest, BufferMatchesReferenceGuardOnCleanFeeds) {
  const std::vector<AtypicalRecord> clean =
      workload_->generator->GenerateMonthAtypical(2);
  for (const int horizon : {0, 1, 4, 13}) {
    SCOPED_TRACE(StrPrintf("horizon %d", horizon));
    Lockstep step(*workload_, grid_, params_,
                  IngestOptions{.lateness_horizon_windows = horizon});
    FeedWithFlushAndReset(&step, clean, horizon);
    if (HasFatalFailure()) return;
    // Only the repeats fed after the Flush are refused.
    const IngestStats& stats = step.product().stats();
    EXPECT_GT(stats.quarantined_duplicate, 0u);
    EXPECT_EQ(stats.quarantined(), stats.quarantined_duplicate);
    EXPECT_EQ(stats.reordered, 0u);
  }
}

TEST_F(IngestTest, WatermarkJumpPastTheHorizonReleasesInWindowOrder) {
  Lockstep step(*workload_, grid_, params_,
                IngestOptions{.lateness_horizon_windows = 2});
  for (const AtypicalRecord& r : std::vector<AtypicalRecord>{
           {0, 10, 1.0f}, {1, 12, 2.0f}, {2, 11, 3.0f}, {3, 12, 4.0f},
           {4, 11, 5.0f}}) {
    ASSERT_EQ(step.Add(r), QuarantineCause::kNone);
  }
  EXPECT_EQ(step.product().buffered(), 4u);  // window 10 went at watermark 12
  // A jump of 8 windows (> horizon + 1) releases every held window, in
  // window then arrival order, and forgets them all.
  ASSERT_EQ(step.Add({5, 20, 6.0f}), QuarantineCause::kNone);
  std::vector<SensorId> order;
  for (const AtypicalRecord& r : step.released()) order.push_back(r.sensor);
  EXPECT_EQ(order, (std::vector<SensorId>{0, 2, 4, 1, 3}));
  EXPECT_EQ(step.product().buffered(), 1u);
  EXPECT_EQ(step.Add({1, 12, 2.0f}), QuarantineCause::kLate);
  EXPECT_EQ(step.Add({5, 18, 1.0f}), QuarantineCause::kNone);
  EXPECT_EQ(step.Add({5, 18, 1.0f}), QuarantineCause::kDuplicate);
  EXPECT_EQ(step.Add({5, 20, 1.0f}), QuarantineCause::kDuplicate);
  step.Flush();
  EXPECT_EQ(step.released().size(), 7u);
}

TEST_F(IngestTest, RecordBehindItsSensorsNewestWindowIsCheckedInItsSlot) {
  Lockstep step(*workload_, grid_, params_,
                IngestOptions{.lateness_horizon_windows = 4});
  ASSERT_EQ(step.Add({0, 10, 1.0f}), QuarantineCause::kNone);
  ASSERT_EQ(step.Add({1, 10, 1.0f}), QuarantineCause::kNone);
  ASSERT_EQ(step.Add({0, 12, 1.0f}), QuarantineCause::kNone);
  ASSERT_EQ(step.Add({1, 11, 1.0f}), QuarantineCause::kNone);
  // Sensor 0's newest window is 12.  Window 11's slot holds only sensor 1,
  // so this is new; window 10's slot holds sensor 0, so that is a repeat.
  EXPECT_EQ(step.Add({0, 11, 2.0f}), QuarantineCause::kNone);
  EXPECT_EQ(step.Add({0, 10, 2.0f}), QuarantineCause::kDuplicate);
  EXPECT_EQ(step.Add({0, 11, 2.0f}), QuarantineCause::kDuplicate);
  EXPECT_EQ(step.Add({0, 12, 2.0f}), QuarantineCause::kDuplicate);
  // Behind the newest window with no slot at all.
  EXPECT_EQ(step.Add({0, 9, 2.0f}), QuarantineCause::kNone);
  EXPECT_EQ(step.product().stats().reordered, 3u);
  step.Flush();
}

TEST_F(IngestTest, DuplicateAtTheOldestDedupWindowIsCaught) {
  Lockstep step(*workload_, grid_, params_,
                IngestOptions{.lateness_horizon_windows = 3});
  ASSERT_EQ(step.Add({0, 7, 1.0f}), QuarantineCause::kNone);
  ASSERT_EQ(step.Add({2, 7, 1.0f}), QuarantineCause::kNone);
  ASSERT_EQ(step.Add({2, 8, 1.0f}), QuarantineCause::kNone);
  ASSERT_EQ(step.Add({1, 10, 1.0f}), QuarantineCause::kNone);
  // Watermark 10, horizon 3: window 7 is released but still deduplicated,
  // both at the sensor's newest window and behind it.
  EXPECT_EQ(step.product().buffered(), 2u);
  EXPECT_EQ(step.Add({0, 7, 1.0f}), QuarantineCause::kDuplicate);
  EXPECT_EQ(step.Add({2, 7, 1.0f}), QuarantineCause::kDuplicate);
  // One window later, window 7 is out of range.
  ASSERT_EQ(step.Add({3, 11, 1.0f}), QuarantineCause::kNone);
  EXPECT_EQ(step.Add({0, 7, 1.0f}), QuarantineCause::kLate);
  step.Flush();
}

}  // namespace
}  // namespace atypical
