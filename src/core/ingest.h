// Fault-tolerant ingestion: the degraded-mode front end of streaming event
// retrieval.
//
// `StreamingEventBuilder` (core/streaming.h) assumes a clean, window-ordered
// feed and dies on anything else.  Real CPS feeds deliver late, duplicated
// and malformed records; `RobustStreamingEventBuilder` wraps the strict
// builder behind a validating guard:
//
//   * malformed records — unknown sensor id, NaN/negative severity, severity
//     exceeding the window length, duplicate (sensor, window) pairs — are
//     quarantined and never reach the builder;
//   * out-of-order records are held in a bounded reorder buffer spanning
//     `lateness_horizon_windows` and released in window order, so a stream
//     permuted within the horizon produces exactly the clean-stream events
//     (tested against batch retrieval).  Records later than the horizon are
//     quarantined; at horizon 0 that is every out-of-order record;
//   * every outcome lands in exactly one `IngestStats` counter, and the
//     counters always reconcile with the number of records fed.
//
// The guard's state is bounded by the records it holds, never by the
// horizon itself: one slot per window inside the lateness horizon of the
// watermark (the maximum accepted window so far) keeps that window's
// accepted records, which are both the reorder buffer and the duplicate-
// detection set, plus one newest-accepted-window stamp per sensor.
#ifndef ATYPICAL_CORE_INGEST_H_
#define ATYPICAL_CORE_INGEST_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/streaming.h"

namespace atypical {

// Kept only so existing callers that spell `policy = kBuffer` still
// compile; the guard has one policy, described above.
enum class IngestPolicy : int8_t { kBuffer };

// Why a record was refused; kNone means it was accepted.
enum class QuarantineCause : int8_t {
  kNone = 0,
  kUnknownSensor,   // sensor id not present in the network
  kBadSeverity,     // NaN or negative severity
  kExcessSeverity,  // severity exceeds the window length
  kDuplicate,       // (sensor, window) already accepted
  kLate,            // window too old for the policy to admit
};

const char* QuarantineCauseName(QuarantineCause cause);

struct IngestOptions {
  IngestPolicy policy = IngestPolicy::kBuffer;  // see IngestPolicy
  // How many windows a record may lag behind the watermark and still be
  // admitted.  Also bounds the reorder buffer and the duplicate-detection
  // state.
  int lateness_horizon_windows = 4;
};

// Ingest outcome counters.  Invariant (tested):
//   records_in == accepted + quarantined().
struct IngestStats {
  uint64_t records_in = 0;  // everything fed to Add
  uint64_t accepted = 0;    // admitted (forwarded to or buffered for the builder)
  uint64_t reordered = 0;   // subset of accepted that arrived out of order
  uint64_t quarantined_unknown_sensor = 0;
  uint64_t quarantined_bad_severity = 0;
  uint64_t quarantined_excess_severity = 0;
  uint64_t quarantined_duplicate = 0;
  uint64_t quarantined_late = 0;

  uint64_t quarantined() const {
    return quarantined_unknown_sensor + quarantined_bad_severity +
           quarantined_excess_severity + quarantined_duplicate +
           quarantined_late;
  }
  bool Reconciles() const { return records_in == accepted + quarantined(); }
};

class RobustStreamingEventBuilder {
 public:
  using EmitSeqFn = StreamingEventBuilder::EmitSeqFn;
  // Observes every record actually released to the inner builder, in the
  // (non-decreasing window) order it is released.
  using AcceptFn = std::function<void(const AtypicalRecord&)>;

  // `emit` receives each closed event's micro-cluster with a seq (see
  // StreamingEventBuilder::EmitSeqFn): the event's earliest record's
  // position in the *released* stream, i.e. the validated, window-ordered
  // feed the accept tap observes — exactly the record numbering batch
  // retrieval over the accepted records uses.
  RobustStreamingEventBuilder(const SensorNetwork* network,
                              const TimeGrid& grid,
                              const RetrievalParams& params,
                              ClusterIdGenerator* ids, EmitSeqFn emit,
                              const IngestOptions& options = {});

  // Publishes the outstanding IngestStats delta to the global obs registry
  // (the "ingest.*" counters); Flush() publishes too, so per-record costs
  // stay out of the obs layer entirely.
  ~RobustStreamingEventBuilder();

  // Installs a tap on accepted records (e.g. to feed a severity cube with
  // only the validated stream).  Must be set before the first Add.
  void set_accept_tap(AcceptFn tap) { accept_tap_ = std::move(tap); }

  // Feeds one record and returns the verdict (kNone = accepted).
  QuarantineCause Add(const AtypicalRecord& record);

  // Releases the reorder buffer in window order and closes all open events.
  void Flush();

  // Flushes, then re-arms the guard and the inner builder for a new day:
  // clears the watermark and the duplicate-detection state and zeroes the
  // inner builder's window watermark (day window ids restart from 0).
  // IngestStats stay cumulative across Reset() — the reconciliation
  // invariant spans the guard's whole lifetime.
  void Reset();

  const IngestStats& stats() const { return stats_; }
  size_t open_events() const { return builder_.open_events(); }
  size_t buffered() const { return buffered_; }
  const IngestOptions& options() const { return options_; }

  struct Quarantined {
    AtypicalRecord record;
    QuarantineCause cause = QuarantineCause::kNone;
  };
  // Most recent quarantined records with their causes, oldest first — a
  // bounded debugging log (the counters in stats() are always exact).
  std::vector<Quarantined> quarantine_log() const;

 private:
  // Field validation independent of arrival order.
  QuarantineCause ClassifyFields(const AtypicalRecord& record) const;
  void Quarantine(const AtypicalRecord& record, QuarantineCause cause);
  // A pooled accepted record, chained to the next of its window.
  static constexpr uint32_t kNil = UINT32_MAX;
  struct Held {
    AtypicalRecord record;
    uint32_t next = kNil;
  };
  // One window's accepted records in arrival order; `unreleased` is the
  // first not yet forwarded to the inner builder (kNil: none).
  struct Slot {
    WindowId window = 0;
    uint32_t head = kNil, tail = kNil, unreleased = kNil;
  };
  // Whether (window, sensor) was accepted within the dedup range.
  bool IsDuplicate(const AtypicalRecord& record) const;
  // Appends an accepted record to its window's slot (opened if needed).
  void Hold(const AtypicalRecord& record);
  // Forwards to the inner builder and the accept tap.
  void Forward(const AtypicalRecord& record);
  void Release(Slot* slot);
  // Releases buffered records whose window can no longer be preceded by any
  // future admissible record, and forgets windows that left the dedup range.
  void ReleaseAndPrune();
  // Adds stats_ - published_ to the global registry and remembers the new
  // high-water mark; safe to call repeatedly.
  void PublishStats();

  const SensorNetwork* network_;
  TimeGrid grid_;
  IngestOptions options_;
  StreamingEventBuilder builder_;
  AcceptFn accept_tap_;

  // Slots of the windows in [watermark - horizon, watermark] that hold
  // accepted records, ascending: the reorder buffer and the dedup set.
  // Forgotten nodes are chained from free_ and reused.
  std::vector<Slot> slots_;
  std::vector<Held> held_;
  uint32_t free_ = kNil;
  size_t buffered_ = 0;   // accepted records not yet released
  // Per sensor, the newest window it had a record accepted at (-1: none).
  std::vector<int64_t> newest_;
  int64_t watermark_ = -1;  // max accepted window (-1: none yet)
  IngestStats stats_;
  IngestStats published_;  // portion of stats_ already in the obs registry
  // The quarantine log as a ring, reserved at the first quarantine; once
  // full, quarantine_oldest_ indexes its oldest entry.
  std::vector<Quarantined> quarantine_log_;
  size_t quarantine_oldest_ = 0;
};

}  // namespace atypical

#endif  // ATYPICAL_CORE_INGEST_H_
