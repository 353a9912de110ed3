// The atypical cluster model (Def. 4): the succinct summary of an atypical
// event, and the unit the whole system computes with.
//
// A cluster is C = ⟨ID, SF, TF⟩ where the spatial feature SF aggregates
// severity per sensor (μᵢ = Σ_T f(sᵢ, t)) and the temporal feature TF
// aggregates severity per time window (νⱼ = Σ_S f(s, tⱼ)).  Both features
// are algebraic (Property 2), so clusters merge in linear time and in any
// order (Property 3).
//
// Invariant: Σμ == Σν == severity(C) — both features distribute the same
// total severity, one by sensor and one by window.
#ifndef ATYPICAL_CORE_CLUSTER_H_
#define ATYPICAL_CORE_CLUSTER_H_

#include <atomic>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "cps/types.h"

namespace atypical {

// A sparse map from a 32-bit key (sensor id or temporal key) to aggregated
// severity, stored as a key-sorted vector for linear merges, deterministic
// iteration and cache-friendly scans.
class FeatureVector {
 public:
  struct Entry {
    uint32_t key;
    double severity;
    friend bool operator==(const Entry& a, const Entry& b) {
      return a.key == b.key && a.severity == b.severity;
    }
  };

  FeatureVector() = default;

  // Accumulates `severity` onto `key`, keeping the entries sorted and
  // duplicate-free after every call.  O(1) when `key` is above the largest
  // key so far; otherwise a binary search plus, for a new key, an in-place
  // insert.  A key's severity is the left-to-right sum of its adds
  // in call order.
  void Add(uint32_t key, double severity);

  // Capacity for `n` entries, so the next `n` Add() calls do not regrow.
  void Reserve(size_t n) { entries_.reserve(n); }

  // Drops the capacity beyond size().
  void ShrinkToFit() { entries_.shrink_to_fit(); }

  // Number of distinct keys.
  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Total severity across all keys.
  double total() const { return total_; }

  // Severity of `key`, 0 if absent.  O(log n).
  double Get(uint32_t key) const;
  bool Contains(uint32_t key) const;

  // Sorted, duplicate-free entries.
  const std::vector<Entry>& entries() const { return entries_; }

  // Severity mass shared with `other`: (Σ_{common keys} this.severity,
  // Σ_{common keys} other.severity).  The numerators of Eq. 3 / Eq. 4.
  // Heavily skewed sizes take a galloping-intersection path that visits the
  // common keys in the same ascending order as the merge scan, so the sums
  // are bit-identical either way.
  std::pair<double, double> CommonSeverity(const FeatureVector& other) const;

  // Algorithm 2 on one feature, in place (Eq. 5/6): absorbs `b`, so a
  // common key gets this.severity + b.severity, the other keys carry over,
  // and total() becomes this.total() + b.total().  One two-way merge into
  // `*buf`, which is then swapped with the entries, so `*buf` comes back
  // holding the old entries' storage for the caller's next absorb.
  // O(|this| + |b|).
  void MergeFrom(const FeatureVector& b, std::vector<Entry>* buf);

  // The merged feature as a new vector: a copy of `a` that absorbs `b`.
  static FeatureVector Merge(const FeatureVector& a, const FeatureVector& b);

  // The entry with the highest severity; dies on empty feature.
  Entry Top() const;

  // Entries sorted by decreasing severity (ties by key).
  std::vector<Entry> TopEntries(size_t k) const;

  // Bytes a compact serialization needs: one (u32 key, f64 severity) pair
  // per entry (model-size accounting, Fig. 16).
  uint64_t ByteSize() const;

  friend bool operator==(const FeatureVector& a, const FeatureVector& b) {
    return a.entries_ == b.entries_;
  }

 private:
  std::vector<Entry> entries_;  // ascending by key, no duplicates
  double total_ = 0.0;
};

// How TF keys are derived from absolute windows; see temporal_key.h.
enum class TemporalKeyMode : uint8_t {
  kAbsolute,   // key = absolute WindowId (same-day analysis)
  kTimeOfDay,  // key = window-of-day (cross-day integration; paper Fig. 5
               // labels temporal features with clock times, no dates)
};

// An atypical micro- or macro-cluster.
struct AtypicalCluster {
  ClusterId id = 0;
  FeatureVector spatial;   // SF: sensor id -> μ
  FeatureVector temporal;  // TF: temporal key -> ν
  TemporalKeyMode key_mode = TemporalKeyMode::kAbsolute;

  // ---- metadata (not part of the paper's model; used for drill-down,
  //      evaluation and reporting) ----
  // Ids of the micro-clusters merged into this cluster ({id} for a micro).
  std::vector<ClusterId> micro_ids;
  // Ids of the two immediate children of the last merge (0,0 for a micro);
  // together with micro_ids this encodes the clustering tree (Fig. 10).
  ClusterId left_child = 0;
  ClusterId right_child = 0;
  // Absolute day span covered ([first,last] inclusive).
  int first_day = 0;
  int last_day = 0;
  // Number of raw atypical records summarized.
  int64_t num_records = 0;
  // Generator ground-truth label that contributed the most severity
  // (kNoEvent when unknown); used only by tests and EXPERIMENTS.
  EventId dominant_true_event = kNoEvent;

  // severity(C) = Σμ = Σν (Def. 5 uses this total).
  double severity() const { return spatial.total(); }

  int num_sensors() const { return static_cast<int>(spatial.size()); }
  int num_windows() const { return static_cast<int>(temporal.size()); }
  int num_micros() const { return static_cast<int>(micro_ids.size()); }

  // Compact serialized size: features plus a fixed header and the micro id
  // list.  The header names its fields via sizeof so the accounting tracks
  // the struct; the former hardcoded 48 silently omitted the
  // left_child/right_child links (delta noted in EXPERIMENTS.md, Fig. 16).
  uint64_t ByteSize() const {
    constexpr uint64_t kHeaderBytes =
        sizeof(ClusterId)            // id
        + 2 * sizeof(ClusterId)      // left_child, right_child
        + 2 * sizeof(int)            // first_day, last_day
        + sizeof(int64_t)            // num_records
        + sizeof(EventId)            // dominant_true_event
        + sizeof(TemporalKeyMode);   // key_mode
    return spatial.ByteSize() + temporal.ByteSize() +
           micro_ids.size() * sizeof(ClusterId) + kHeaderBytes;
  }

  // Human-readable summary (id, severity, top sensor, day span).
  std::string DebugString(const TimeGrid& grid) const;
};

// Process-wide monotonically increasing cluster id source.  Macro-clusters
// get fresh ids on every merge ("a new ID is generated", §III.C).
class ClusterIdGenerator {
 public:
  explicit ClusterIdGenerator(ClusterId first = 1) : next_(first) {}

  // Movable so owners (e.g. AtypicalForest) stay movable; moving a
  // generator that another thread is concurrently using is a logic error.
  ClusterIdGenerator(ClusterIdGenerator&& other) noexcept
      : next_(other.next_.load(std::memory_order_relaxed)) {}
  ClusterIdGenerator& operator=(ClusterIdGenerator&& other) noexcept {
    next_.store(other.next_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  // Copyable so owners are copyable for snapshot cloning (the serving
  // layer's epoch publish copies the forest, DESIGN §16).  The copy
  // continues from the source's current position; both generators then
  // advance independently, which is exactly right for an immutable snapshot
  // next to a still-ingesting original.
  ClusterIdGenerator(const ClusterIdGenerator& other)
      : next_(other.next_.load(std::memory_order_relaxed)) {}
  ClusterIdGenerator& operator=(const ClusterIdGenerator& other) {
    next_.store(other.next_.load(std::memory_order_relaxed),
                std::memory_order_relaxed);
    return *this;
  }

  ClusterId Next() { return next_.fetch_add(1, std::memory_order_relaxed); }

  // Guarantees all future ids exceed `id` (used when installing pre-built
  // clusters next to freshly generated ones).
  void EnsureAbove(ClusterId id) {
    ClusterId current = next_.load(std::memory_order_relaxed);
    while (current <= id &&
           !next_.compare_exchange_weak(current, id + 1,
                                        std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<ClusterId> next_;
};

}  // namespace atypical

#endif  // ATYPICAL_CORE_CLUSTER_H_
