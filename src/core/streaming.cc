#include "core/streaming.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "util/logging.h"

namespace atypical {
namespace {

const SensorNetwork& Deref(const SensorNetwork* network) {
  CHECK(network != nullptr);
  return *network;
}

}  // namespace

EventJoiner::EventJoiner(const SensorNetwork& network, const TimeGrid& grid,
                         const RetrievalParams& params, EmitFn emit)
    : neighbors_(network, params.delta_d_miles, params.metric),
      grid_(grid),
      delta_t_minutes_(params.delta_t_minutes),
      emit_(std::move(emit)),
      recent_(network.num_sensors()) {
  CHECK(emit_ != nullptr);
  CHECK_GT(params.delta_t_minutes, 0);
}

void EventJoiner::Add(const AtypicalRecord& record, uint64_t seq) {
  CHECK_GE(record.window, watermark_)
      << "stream must be fed in non-decreasing window order";
  CHECK_LT(static_cast<size_t>(record.sensor), recent_.size());
  // Open events only change state when the window advances.
  if (record.window > watermark_ && open_count_ > 0) {
    CloseExpired(record.window);
  }
  watermark_ = record.window;

  uint32_t root = kNoSlot;
  const auto join = [&](SensorId sensor) {
    ++neighbor_checks_;
    const Recent& recent = recent_[sensor];
    // The window test comes first: an entry δt or more behind belongs to a
    // closed event whose slot may already have been dropped.
    if (recent.slot == kNoSlot ||
        grid_.IntervalMinutes(recent.window, record.window) >=
            delta_t_minutes_) {
      return;
    }
    const uint32_t event = Find(recent.slot);
    root = root == kNoSlot ? event : Union(root, event);
  };
  join(record.sensor);
  for (const SensorId neighbor : neighbors_.Of(record.sensor)) join(neighbor);

  if (root == kNoSlot) {
    root = static_cast<uint32_t>(slots_.size());
    slots_.push_back(Slot{root, record.window, seq, {}});
    open_.push_back(root);
    ++open_count_;
  }
  Slot& slot = slots_[root];
  slot.members.push_back(Member{record, seq});
  slot.last_window = std::max(slot.last_window, record.window);
  slot.first_seq = std::min(slot.first_seq, seq);
  recent_[record.sensor] = Recent{record.window, root};
}

uint32_t EventJoiner::Find(uint32_t slot) {
  while (slots_[slot].parent != slot) {
    slots_[slot].parent = slots_[slots_[slot].parent].parent;  // halving
    slot = slots_[slot].parent;
  }
  return slot;
}

uint32_t EventJoiner::Union(uint32_t a, uint32_t b) {
  if (a == b) return a;
  // The survivor keeps the smaller first seq, so `open_` (in opening order)
  // stays in ascending first seq for a seq-ordered feed; the larger member
  // list is kept and the smaller appended to it.
  if (slots_[b].first_seq < slots_[a].first_seq) std::swap(a, b);
  Slot& survivor = slots_[a];
  Slot& victim = slots_[b];
  if (victim.members.size() > survivor.members.size()) {
    survivor.members.swap(victim.members);
  }
  survivor.members.insert(survivor.members.end(), victim.members.begin(),
                          victim.members.end());
  survivor.last_window = std::max(survivor.last_window, victim.last_window);
  victim.members = {};
  victim.parent = a;
  --open_count_;
  return a;
}

void EventJoiner::CloseExpired(WindowId window) {
  closing_.clear();
  size_t kept = 0;
  for (const uint32_t slot : open_) {
    if (slots_[slot].parent != slot) continue;  // merged into another event
    // A future record has window >= `window`; if even `window` is already
    // δt away from the event's newest record, nothing can relate anymore.
    if (grid_.IntervalMinutes(slots_[slot].last_window, window) >=
        delta_t_minutes_) {
      closing_.push_back(slot);
    } else {
      open_[kept++] = slot;
    }
  }
  open_.resize(kept);
  EmitClosing();
  // With nothing open, every per-sensor entry is δt behind any future
  // record, so no live state refers to a slot and they can all go.
  if (open_count_ == 0) slots_.clear();
}

void EventJoiner::EmitClosing() {
  std::sort(closing_.begin(), closing_.end(), [&](uint32_t a, uint32_t b) {
    return slots_[a].first_seq < slots_[b].first_seq;
  });
  for (const uint32_t root : closing_) {
    std::vector<Member>& members = slots_[root].members;
    std::sort(members.begin(), members.end(),
              [](const Member& a, const Member& b) { return a.seq < b.seq; });
    emit_(members);
    members = {};
    --open_count_;
  }
}

void EventJoiner::Flush() {
  closing_.clear();
  for (const uint32_t slot : open_) {
    if (slots_[slot].parent == slot) closing_.push_back(slot);
  }
  open_.clear();
  EmitClosing();
  slots_.clear();
  // Flushed events are closed for good: later records must not join them.
  std::fill(recent_.begin(), recent_.end(), Recent{});
}

void EventJoiner::Reset() {
  Flush();
  watermark_ = 0;
}

StreamingEventBuilder::StreamingEventBuilder(const SensorNetwork* network,
                                             const TimeGrid& grid,
                                             const RetrievalParams& params,
                                             ClusterIdGenerator* ids,
                                             EmitSeqFn emit)
    : grid_(grid),
      ids_(ids),
      emit_(std::move(emit)),
      joiner_(Deref(network), grid, params,
              [this](const std::vector<EventJoiner::Member>& event) {
                Emit(event);
              }) {
  CHECK(ids != nullptr);
  CHECK(emit_ != nullptr);
}

void StreamingEventBuilder::Emit(
    const std::vector<EventJoiner::Member>& event) {
  records_.clear();
  for (const EventJoiner::Member& member : event) {
    records_.push_back(member.record);
  }
  positions_.resize(records_.size());
  std::iota(positions_.begin(), positions_.end(), size_t{0});
  emit_(BuildMicroCluster(records_, positions_, grid_, ids_),
        event.front().seq);
}

void StreamingEventBuilder::Reset() {
  joiner_.Reset();
  records_seen_ = 0;
}

std::vector<AtypicalCluster> StreamMicroClusters(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params,
    ClusterIdGenerator* ids) {
  std::vector<AtypicalCluster> out;
  StreamingEventBuilder builder(
      &network, grid, params, ids,
      [&out](AtypicalCluster cluster, uint64_t /*first_record_seq*/) {
        out.push_back(std::move(cluster));
      });
  for (const AtypicalRecord& r : records) builder.Add(r);
  builder.Flush();
  return out;
}

}  // namespace atypical
