// Algorithm 1's one code path, and its streaming front end.
//
// An atypical event (Def. 3) is a connected component of the direct-
// atypical-related relation (Def. 1: sensor distance < δd and window
// interval < δt).  `EventJoiner` finds the components in one pass over a
// window-ordered record stream: it keeps, per sensor, the window and event
// of that sensor's newest record, and joins each new record with the open
// events of its own sensor and its precomputed δd-neighbours
// (`SensorNeighbors`) by union-find.  A record therefore costs O(degree),
// and the whole retrieval O(N + n log n) including the window sort batch
// retrieval does first (Proposition 1's indexed bound).  An event closes
// once no future record can relate to it — the stream has advanced δt past
// its newest record — and is emitted with its records in seq order.
//
// Two drivers share the joiner, so streamed ≡ batch holds by construction:
// batch `RetrieveEvents` feeds it the records stably ordered by window with
// seq = input index, and `StreamingEventBuilder` feeds a live CPS stream
// with seq = arrival index, emitting each closed event's micro-cluster.
// Either way an event's records are accumulated in seq order, and the seq
// of its earliest record lets a consumer restore batch event order (events
// sorted by smallest record index).
#ifndef ATYPICAL_CORE_STREAMING_H_
#define ATYPICAL_CORE_STREAMING_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "core/cluster.h"
#include "core/event_retrieval.h"
#include "cps/record.h"
#include "cps/sensor_network.h"

namespace atypical {

class EventJoiner {
 public:
  struct Member {
    AtypicalRecord record;
    uint64_t seq = 0;
  };
  // Receives each closed event's records sorted by seq.  Events that close
  // together are emitted in ascending smallest seq.
  using EmitFn = std::function<void(const std::vector<Member>&)>;

  EventJoiner(const SensorNetwork& network, const TimeGrid& grid,
              const RetrievalParams& params, EmitFn emit);

  // Joins one record.  Windows must be non-decreasing across calls; seqs
  // must be unique until the next Flush().
  void Add(const AtypicalRecord& record, uint64_t seq);

  // Emits every open event.  The window watermark stays (see Reset()).
  void Flush();

  // Flushes and zeroes the window watermark.
  void Reset();

  size_t open_events() const { return open_count_; }

  // Sensor entries examined so far: one per record for its own sensor plus
  // one per δd-neighbour.
  uint64_t neighbor_checks() const { return neighbor_checks_; }

 private:
  static constexpr uint32_t kNoSlot = UINT32_MAX;

  // One union-find node per opened event; the fields below `parent` are
  // meaningful on roots only.
  struct Slot {
    uint32_t parent = 0;
    WindowId last_window = 0;  // newest window of any record
    uint64_t first_seq = 0;    // smallest seq of any record
    std::vector<Member> members;
  };
  // The newest record seen at a sensor.  Every record of that sensor within
  // δt of a later record is in the same event as the newest one (same
  // sensor, interval no larger), so one entry per sensor is enough.
  struct Recent {
    WindowId window = 0;
    uint32_t slot = kNoSlot;
  };

  uint32_t Find(uint32_t slot);
  uint32_t Union(uint32_t a, uint32_t b);
  void CloseExpired(WindowId window);
  // Emits the events in `closing_` in ascending first seq.
  void EmitClosing();

  const SensorNeighbors neighbors_;
  TimeGrid grid_;
  int64_t delta_t_minutes_;
  EmitFn emit_;
  std::vector<Recent> recent_;   // by sensor
  std::vector<Slot> slots_;      // dropped whenever no event is open
  std::vector<uint32_t> open_;   // roots by opening; merged ones are skipped
  std::vector<uint32_t> closing_;
  size_t open_count_ = 0;
  WindowId watermark_ = 0;
  uint64_t neighbor_checks_ = 0;
};

class StreamingEventBuilder {
 public:
  // Called with the finished micro-cluster of each closed event, in closing
  // order, and the arrival index (0-based position in the fed stream) of the
  // event's *earliest* record.  Closing order is not batch order — an event
  // opened late can close before one opened early that keeps growing — but
  // sorting emitted clusters by `first_record_seq` reproduces exactly the
  // event order of batch `RetrieveEvents` (events ordered by smallest record
  // index).  This is the seam `IncrementalIntegrator` uses for its
  // streamed≡batch guarantee; callers that need no order ignore the seq.
  using EmitSeqFn = std::function<void(AtypicalCluster, uint64_t)>;

  StreamingEventBuilder(const SensorNetwork* network, const TimeGrid& grid,
                        const RetrievalParams& params,
                        ClusterIdGenerator* ids, EmitSeqFn emit);
  // The joiner's emit callback points back at this builder.
  StreamingEventBuilder(const StreamingEventBuilder&) = delete;
  StreamingEventBuilder& operator=(const StreamingEventBuilder&) = delete;

  // Feeds one record.  Records must arrive in non-decreasing window order
  // (the natural order of a CPS feed); violating this dies.
  void Add(const AtypicalRecord& record) {
    joiner_.Add(record, records_seen_++);
  }

  // Number of events currently open (awaiting possible growth).
  size_t open_events() const { return joiner_.open_events(); }

  // Total records fed so far.
  size_t records_seen() const { return records_seen_; }

  // Closes every open event regardless of window distance (end of stream).
  // Flush alone does NOT re-arm the builder for a new day: window ids
  // restart each day, and the monotonic-feed CHECK in Add() would fire.
  // Call Reset() between days.
  void Flush() { joiner_.Flush(); }

  // Flushes, then returns the builder to its freshly-constructed state
  // (window watermark and record counter zeroed) so one builder can serve
  // consecutive days whose window ids restart from 0.
  void Reset();

 private:
  void Emit(const std::vector<EventJoiner::Member>& event);

  TimeGrid grid_;
  ClusterIdGenerator* ids_;
  EmitSeqFn emit_;
  EventJoiner joiner_;
  uint64_t records_seen_ = 0;
  // Reused per emitted event.
  std::vector<AtypicalRecord> records_;
  std::vector<size_t> positions_;
};

// Convenience: streams `records` (sorted by window) through a builder and
// returns all micro-clusters (events ordered by closing time).
std::vector<AtypicalCluster> StreamMicroClusters(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params,
    ClusterIdGenerator* ids);

}  // namespace atypical

#endif  // ATYPICAL_CORE_STREAMING_H_
