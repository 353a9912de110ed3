#include "core/ingest.h"

#include <algorithm>
#include <cmath>

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
    : network_(network),
      grid_(grid),
      options_(options),
      builder_(network, grid, params, ids, std::move(emit)) {
  CHECK_GE(options.lateness_horizon_windows, 0);
}

RobustStreamingEventBuilder::RobustStreamingEventBuilder(
    const SensorNetwork* network, const TimeGrid& grid,
    const RetrievalParams& params, ClusterIdGenerator* ids, EmitSeqFn emit,
    const IngestOptions& options)
    : network_(network),
      grid_(grid),
      options_(options),
      builder_(network, grid, params, ids, std::move(emit)) {
  CHECK_GE(options.lateness_horizon_windows, 0);
}

RobustStreamingEventBuilder::~RobustStreamingEventBuilder() { PublishStats(); }

void RobustStreamingEventBuilder::PublishStats() {
  // Cached metric handles: one registry lookup per process, not per guard.
  static obs::Counter* const records_in =
      obs::Registry()->GetCounter("ingest.records_in");
  static obs::Counter* const accepted =
      obs::Registry()->GetCounter("ingest.accepted");
  static obs::Counter* const reordered =
      obs::Registry()->GetCounter("ingest.reordered");
  static obs::Counter* const quarantined_unknown_sensor =
      obs::Registry()->GetCounter("ingest.quarantined.unknown_sensor");
  static obs::Counter* const quarantined_bad_severity =
      obs::Registry()->GetCounter("ingest.quarantined.bad_severity");
  static obs::Counter* const quarantined_excess_severity =
      obs::Registry()->GetCounter("ingest.quarantined.excess_severity");
  static obs::Counter* const quarantined_duplicate =
      obs::Registry()->GetCounter("ingest.quarantined.duplicate");
  static obs::Counter* const quarantined_late =
      obs::Registry()->GetCounter("ingest.quarantined.late");

  // Deltas keep Flush + destructor (and repeated flushes) exact: the global
  // counters always total the per-instance IngestStats published so far.
  records_in->Add(stats_.records_in - published_.records_in);
  accepted->Add(stats_.accepted - published_.accepted);
  reordered->Add(stats_.reordered - published_.reordered);
  quarantined_unknown_sensor->Add(stats_.quarantined_unknown_sensor -
                                  published_.quarantined_unknown_sensor);
  quarantined_bad_severity->Add(stats_.quarantined_bad_severity -
                                published_.quarantined_bad_severity);
  quarantined_excess_severity->Add(stats_.quarantined_excess_severity -
                                   published_.quarantined_excess_severity);
  quarantined_duplicate->Add(stats_.quarantined_duplicate -
                             published_.quarantined_duplicate);
  quarantined_late->Add(stats_.quarantined_late - published_.quarantined_late);
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

  QuarantineCause cause = ClassifyFields(record);
  if (cause == QuarantineCause::kNone && has_watermark_) {
    // Arrival-order checks (under kStrict the inner builder's order CHECK
    // is the contract).  Late is checked before duplicate: a record too old
    // for admission is refused as late even if it also repeats one, so
    // every refusal maps to exactly one cause.
    const uint64_t horizon =
        static_cast<uint64_t>(options_.lateness_horizon_windows);
    if (options_.policy == IngestPolicy::kBuffer &&
        static_cast<uint64_t>(record.window) + horizon < watermark_) {
      cause = QuarantineCause::kLate;
    }
  }
  if (cause == QuarantineCause::kNone &&
      seen_.contains({record.window, record.sensor})) {
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

  const bool out_of_order = has_watermark_ && record.window < watermark_;
  if (!has_watermark_ || record.window > watermark_) {
    watermark_ = record.window;
    has_watermark_ = true;
  }
  ++stats_.accepted;
  if (out_of_order) ++stats_.reordered;
  seen_.insert({record.window, record.sensor});

  if (options_.policy == IngestPolicy::kBuffer) {
    buffer_.emplace(record.window, record);
  } else {
    Forward(record);
  }
  ReleaseAndPrune();
  DCHECK(stats_.Reconciles())
      << "accept left records_in != accepted + quarantined";
  return QuarantineCause::kNone;
}

void RobustStreamingEventBuilder::Quarantine(const AtypicalRecord& record,
                                             QuarantineCause cause) {
  switch (cause) {
    case QuarantineCause::kUnknownSensor:
      ++stats_.quarantined_unknown_sensor;
      break;
    case QuarantineCause::kBadSeverity:
      ++stats_.quarantined_bad_severity;
      break;
    case QuarantineCause::kExcessSeverity:
      ++stats_.quarantined_excess_severity;
      break;
    case QuarantineCause::kDuplicate:
      ++stats_.quarantined_duplicate;
      break;
    case QuarantineCause::kLate:
      ++stats_.quarantined_late;
      break;
    case QuarantineCause::kNone:
      CHECK(false) << "cannot quarantine an accepted record";
  }
  quarantine_log_.push_back({record, cause});
  if (quarantine_log_.size() > kQuarantineLogCap) quarantine_log_.pop_front();
}

void RobustStreamingEventBuilder::Forward(const AtypicalRecord& record) {
  if (accept_tap_) accept_tap_(record);
  builder_.Add(record);
}

void RobustStreamingEventBuilder::ReleaseAndPrune() {
  const uint64_t horizon =
      static_cast<uint64_t>(options_.lateness_horizon_windows);
  // A buffered record at `w` is safe to release once no admissible future
  // record can precede it, i.e. once w + horizon <= watermark (future
  // arrivals are admitted only at window >= watermark - horizon).
  while (!buffer_.empty() &&
         static_cast<uint64_t>(buffer_.begin()->first) + horizon <=
             watermark_) {
    Forward(buffer_.begin()->second);
    buffer_.erase(buffer_.begin());
  }
  // Dedup entries older than the admission bound can never collide again.
  while (!seen_.empty() &&
         static_cast<uint64_t>(seen_.begin()->first) + horizon < watermark_) {
    seen_.erase(seen_.begin());
  }
}

void RobustStreamingEventBuilder::Flush() {
  for (const auto& [window, record] : buffer_) Forward(record);
  buffer_.clear();
  builder_.Flush();
  PublishStats();
}

void RobustStreamingEventBuilder::Reset() {
  Flush();
  builder_.Reset();
  seen_.clear();
  watermark_ = 0;
  has_watermark_ = false;
}

}  // namespace atypical
