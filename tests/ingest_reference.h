// Literal reference for RobustStreamingEventBuilder, as it stood before the
// guard moved to per-window slots and per-sensor dedup stamps: a
// std::multimap reorder buffer keyed by window (equal keys in arrival
// order) and a std::set of accepted (window, sensor) pairs pruned to the
// lateness horizon.  It shares the product's IngestOptions, IngestStats and
// QuarantineCause and wraps the same StreamingEventBuilder, so tests can
// drive both guards in lockstep and compare every observable bit.  It does
// not publish to the obs registry; nothing in src/ uses it.
#ifndef ATYPICAL_TESTS_INGEST_REFERENCE_H_
#define ATYPICAL_TESTS_INGEST_REFERENCE_H_

#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <set>
#include <utility>

#include "core/ingest.h"
#include "core/streaming.h"
#include "util/logging.h"

namespace atypical {
namespace reference {

class RobustStreamingEventBuilder {
 public:
  using EmitSeqFn = StreamingEventBuilder::EmitSeqFn;
  using AcceptFn = ::atypical::RobustStreamingEventBuilder::AcceptFn;
  using Quarantined = ::atypical::RobustStreamingEventBuilder::Quarantined;

  // The product guard's cap on its quarantine log.
  static constexpr size_t kQuarantineLogCap = 256;

  RobustStreamingEventBuilder(const SensorNetwork* network,
                              const TimeGrid& grid,
                              const RetrievalParams& params,
                              ClusterIdGenerator* ids, EmitSeqFn emit,
                              const IngestOptions& options = {})
      : network_(network),
        grid_(grid),
        options_(options),
        builder_(network, grid, params, ids, std::move(emit)) {
    CHECK_GE(options.lateness_horizon_windows, 0);
  }

  void set_accept_tap(AcceptFn tap) { accept_tap_ = std::move(tap); }

  QuarantineCause Add(const AtypicalRecord& record) {
    ++stats_.records_in;

    QuarantineCause cause = ClassifyFields(record);
    if (cause == QuarantineCause::kNone && has_watermark_) {
      const uint64_t horizon =
          static_cast<uint64_t>(options_.lateness_horizon_windows);
      if (static_cast<uint64_t>(record.window) + horizon < watermark_) {
        cause = QuarantineCause::kLate;
      }
    }
    if (cause == QuarantineCause::kNone &&
        seen_.contains({record.window, record.sensor})) {
      cause = QuarantineCause::kDuplicate;
    }

    if (cause != QuarantineCause::kNone) {
      Quarantine(record, cause);
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

    buffer_.emplace(record.window, record);
    ReleaseAndPrune();
    return QuarantineCause::kNone;
  }

  void Flush() {
    for (const auto& [window, record] : buffer_) Forward(record);
    buffer_.clear();
    builder_.Flush();
  }

  void Reset() {
    Flush();
    builder_.Reset();
    seen_.clear();
    watermark_ = 0;
    has_watermark_ = false;
  }

  const IngestStats& stats() const { return stats_; }
  size_t open_events() const { return builder_.open_events(); }
  size_t buffered() const { return buffer_.size(); }
  const std::deque<Quarantined>& quarantine_log() const {
    return quarantine_log_;
  }

 private:
  QuarantineCause ClassifyFields(const AtypicalRecord& record) const {
    if (record.sensor == kInvalidSensor ||
        static_cast<int64_t>(record.sensor) >= network_->num_sensors()) {
      return QuarantineCause::kUnknownSensor;
    }
    if (std::isnan(record.severity_minutes) ||
        record.severity_minutes < 0.0f) {
      return QuarantineCause::kBadSeverity;
    }
    if (record.severity_minutes >
        static_cast<float>(grid_.window_minutes())) {
      return QuarantineCause::kExcessSeverity;
    }
    return QuarantineCause::kNone;
  }

  void Quarantine(const AtypicalRecord& record, QuarantineCause cause) {
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
    if (quarantine_log_.size() > kQuarantineLogCap) {
      quarantine_log_.pop_front();
    }
  }

  void Forward(const AtypicalRecord& record) {
    if (accept_tap_) accept_tap_(record);
    builder_.Add(record);
  }

  void ReleaseAndPrune() {
    const uint64_t horizon =
        static_cast<uint64_t>(options_.lateness_horizon_windows);
    while (!buffer_.empty() &&
           static_cast<uint64_t>(buffer_.begin()->first) + horizon <=
               watermark_) {
      Forward(buffer_.begin()->second);
      buffer_.erase(buffer_.begin());
    }
    while (!seen_.empty() &&
           static_cast<uint64_t>(seen_.begin()->first) + horizon <
               watermark_) {
      seen_.erase(seen_.begin());
    }
  }

  const SensorNetwork* network_;
  TimeGrid grid_;
  IngestOptions options_;
  StreamingEventBuilder builder_;
  AcceptFn accept_tap_;

  std::multimap<WindowId, AtypicalRecord> buffer_;
  std::set<std::pair<WindowId, SensorId>> seen_;
  WindowId watermark_ = 0;
  bool has_watermark_ = false;
  IngestStats stats_;
  std::deque<Quarantined> quarantine_log_;
};

}  // namespace reference
}  // namespace atypical

#endif  // ATYPICAL_TESTS_INGEST_REFERENCE_H_
