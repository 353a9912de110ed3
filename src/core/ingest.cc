#include "core/ingest.h"

#include <algorithm>
#include <cmath>
#include <iterator>

#include "obs/stats.h"
#include "util/logging.h"

namespace atypical {

namespace {
// Cap on the quarantine debugging log; counters stay exact beyond it.
constexpr size_t kQuarantineLogCap = 256;
}  // namespace

const char* IngestPolicyName(IngestPolicy policy) {
  switch (policy) {
    case IngestPolicy::kStrict:
      return "strict";
    case IngestPolicy::kBuffer:
      return "buffer";
  }
  return "unknown";
}

const char* QuarantineCauseName(QuarantineCause cause) {
  switch (cause) {
    case QuarantineCause::kNone:
      return "none";
    case QuarantineCause::kUnknownSensor:
      return "unknown_sensor";
    case QuarantineCause::kBadSeverity:
      return "bad_severity";
    case QuarantineCause::kExcessSeverity:
      return "excess_severity";
    case QuarantineCause::kDuplicate:
      return "duplicate";
    case QuarantineCause::kLate:
      return "late";
  }
  return "unknown";
}

RobustStreamingEventBuilder::RobustStreamingEventBuilder(
    const SensorNetwork* network, const TimeGrid& grid,
    const RetrievalParams& params, ClusterIdGenerator* ids, EmitFn emit,
    const IngestOptions& options)
    : RobustStreamingEventBuilder(
          network, grid, params, ids,
          EmitSeqFn([inner = std::move(emit)](AtypicalCluster cluster,
                                              uint64_t /*first_record_seq*/) {
            inner(std::move(cluster));
          }),
          options) {}

RobustStreamingEventBuilder::RobustStreamingEventBuilder(
    const SensorNetwork* network, const TimeGrid& grid,
    const RetrievalParams& params, ClusterIdGenerator* ids, EmitSeqFn emit,
    const IngestOptions& options)
    : network_(network),
      grid_(grid),
      options_(options),
      builder_(network, grid, params, ids, std::move(emit)),
      newest_(static_cast<size_t>(network->num_sensors()), -1) {
  CHECK_GE(options.lateness_horizon_windows, 0);
}

RobustStreamingEventBuilder::~RobustStreamingEventBuilder() { PublishStats(); }

void RobustStreamingEventBuilder::PublishStats() {
  // Each counter with its cached metric handle: one registry lookup per
  // process, not per guard.
  static const std::pair<uint64_t IngestStats::*, obs::Counter*>
      kMetrics[] = {
      {&IngestStats::records_in,
       obs::Registry()->GetCounter("ingest.records_in")},
      {&IngestStats::accepted, obs::Registry()->GetCounter("ingest.accepted")},
      {&IngestStats::reordered,
       obs::Registry()->GetCounter("ingest.reordered")},
      {&IngestStats::quarantined_unknown_sensor,
       obs::Registry()->GetCounter("ingest.quarantined.unknown_sensor")},
      {&IngestStats::quarantined_bad_severity,
       obs::Registry()->GetCounter("ingest.quarantined.bad_severity")},
      {&IngestStats::quarantined_excess_severity,
       obs::Registry()->GetCounter("ingest.quarantined.excess_severity")},
      {&IngestStats::quarantined_duplicate,
       obs::Registry()->GetCounter("ingest.quarantined.duplicate")},
      {&IngestStats::quarantined_late,
       obs::Registry()->GetCounter("ingest.quarantined.late")}};
  // Deltas keep Flush + destructor (and repeated flushes) exact: the global
  // counters always total the per-instance IngestStats published so far.
  for (const auto& [field, counter] : kMetrics) {
    counter->Add(stats_.*field - published_.*field);
  }
  published_ = stats_;
}

QuarantineCause RobustStreamingEventBuilder::ClassifyFields(
    const AtypicalRecord& record) const {
  if (record.sensor == kInvalidSensor ||
      static_cast<int64_t>(record.sensor) >= network_->num_sensors()) {
    return QuarantineCause::kUnknownSensor;
  }
  if (std::isnan(record.severity_minutes) || record.severity_minutes < 0.0f) {
    return QuarantineCause::kBadSeverity;
  }
  if (record.severity_minutes >
      static_cast<float>(grid_.window_minutes())) {
    return QuarantineCause::kExcessSeverity;
  }
  return QuarantineCause::kNone;
}

QuarantineCause RobustStreamingEventBuilder::Add(const AtypicalRecord& record) {
  ++stats_.records_in;

  const int64_t window = record.window;
  QuarantineCause cause = ClassifyFields(record);
  // Arrival-order checks (under kStrict the inner builder's order CHECK is
  // the contract).  Late is checked before duplicate: a record too old for
  // admission is refused as late even if it also repeats one, so every
  // refusal maps to exactly one cause.
  if (cause == QuarantineCause::kNone &&
      options_.policy == IngestPolicy::kBuffer &&
      window + options_.lateness_horizon_windows < watermark_) {
    cause = QuarantineCause::kLate;
  }
  if (cause == QuarantineCause::kNone && IsDuplicate(record)) {
    cause = QuarantineCause::kDuplicate;
  }

  if (cause != QuarantineCause::kNone) {
    CHECK(options_.policy != IngestPolicy::kStrict)
        << "strict ingest refuses record: cause="
        << QuarantineCauseName(cause) << " sensor=" << record.sensor
        << " window=" << record.window
        << " severity=" << record.severity_minutes;
    Quarantine(record, cause);
    DCHECK(stats_.Reconciles())
        << "quarantine left records_in != accepted + quarantined";
    return cause;
  }

  ++stats_.accepted;
  if (window < watermark_) ++stats_.reordered;
  watermark_ = std::max(watermark_, window);
  newest_[record.sensor] = std::max(newest_[record.sensor], window);

  Slot& slot = Hold(record);
  if (options_.policy == IngestPolicy::kStrict) Release(&slot);
  ReleaseAndPrune();
  DCHECK(stats_.Reconciles())
      << "accept left records_in != accepted + quarantined";
  return QuarantineCause::kNone;
}

bool RobustStreamingEventBuilder::IsDuplicate(
    const AtypicalRecord& record) const {
  const int64_t window = record.window;
  const int64_t newest = newest_[record.sensor];
  // The sensor's accepted windows are all at or below its stamp, and dedup
  // covers [watermark - horizon, watermark] (kBuffer refused older records
  // as late already).
  if (window > newest ||
      window + options_.lateness_horizon_windows < watermark_) {
    return false;
  }
  if (window == newest) return true;
  // Behind the sensor's newest window: scan that window's slot.
  const auto slot =
      std::ranges::lower_bound(slots_, record.window, {}, &Slot::window);
  if (slot == slots_.end() || slot->window != record.window) return false;
  for (uint32_t n = slot->head; n != kNil; n = held_[n].next) {
    if (held_[n].record.sensor == record.sensor) return true;
  }
  return false;
}

RobustStreamingEventBuilder::Slot& RobustStreamingEventBuilder::Hold(
    const AtypicalRecord& record) {
  if (free_ == kNil) {  // grow the pool by one free node
    CHECK_LT(held_.size(), size_t{kNil});
    free_ = static_cast<uint32_t>(held_.size());
    held_.emplace_back();
  }
  const uint32_t node = std::exchange(free_, held_[free_].next);
  held_[node] = {record, kNil};
  ++buffered_;
  auto slot =
      std::ranges::lower_bound(slots_, record.window, {}, &Slot::window);
  if (slot == slots_.end() || slot->window != record.window) {
    slot = slots_.insert(slot, Slot{record.window});
  }
  (slot->head == kNil ? slot->head : held_[slot->tail].next) = node;
  slot->tail = node;
  if (slot->unreleased == kNil) slot->unreleased = node;
  return *slot;
}

void RobustStreamingEventBuilder::Quarantine(const AtypicalRecord& record,
                                             QuarantineCause cause) {
  // Each cause's counter, in QuarantineCause order.
  static constexpr uint64_t IngestStats::*kCounters[] = {
      nullptr,
      &IngestStats::quarantined_unknown_sensor,
      &IngestStats::quarantined_bad_severity,
      &IngestStats::quarantined_excess_severity,
      &IngestStats::quarantined_duplicate,
      &IngestStats::quarantined_late};
  CHECK(cause != QuarantineCause::kNone)
      << "cannot quarantine an accepted record";
  ++(stats_.*kCounters[static_cast<size_t>(cause)]);
  if (quarantine_log_.size() < kQuarantineLogCap) {
    if (quarantine_log_.empty()) quarantine_log_.reserve(kQuarantineLogCap);
    quarantine_log_.push_back({record, cause});
  } else {
    quarantine_log_[quarantine_oldest_] = {record, cause};
    quarantine_oldest_ = (quarantine_oldest_ + 1) % kQuarantineLogCap;
  }
}

std::vector<RobustStreamingEventBuilder::Quarantined>
RobustStreamingEventBuilder::quarantine_log() const {
  std::vector<Quarantined> log;
  log.reserve(quarantine_log_.size());
  std::ranges::rotate_copy(quarantine_log_,
                           quarantine_log_.begin() + quarantine_oldest_,
                           std::back_inserter(log));
  return log;
}

void RobustStreamingEventBuilder::Forward(const AtypicalRecord& record) {
  if (accept_tap_) accept_tap_(record);
  builder_.Add(record);
}

void RobustStreamingEventBuilder::Release(Slot* slot) {
  for (; slot->unreleased != kNil;
       slot->unreleased = held_[slot->unreleased].next) {
    --buffered_;
    Forward(held_[slot->unreleased].record);
  }
}

void RobustStreamingEventBuilder::ReleaseAndPrune() {
  const int64_t horizon = options_.lateness_horizon_windows;
  // A buffered record at `w` is safe to release once no admissible future
  // record can precede it, i.e. once w + horizon <= watermark (future
  // arrivals are admitted only at window >= watermark - horizon).  Its
  // window leaves the dedup range one window later.
  ptrdiff_t expired = 0;
  for (Slot& slot : slots_) {
    if (slot.window + horizon > watermark_) break;
    Release(&slot);
    if (slot.window + horizon < watermark_) {  // its nodes go to free_
      held_[slot.tail].next = free_;
      free_ = slot.head;
      ++expired;
    }
  }
  slots_.erase(slots_.begin(), slots_.begin() + expired);
}

void RobustStreamingEventBuilder::Flush() {
  for (Slot& slot : slots_) Release(&slot);
  builder_.Flush();
  PublishStats();
}

void RobustStreamingEventBuilder::Reset() {
  Flush();
  builder_.Reset();
  slots_.clear();
  held_.clear();
  free_ = kNil;
  std::fill(newest_.begin(), newest_.end(), -1);
  watermark_ = -1;
}

}  // namespace atypical
