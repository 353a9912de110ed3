// Pipeline metrics: monotonic counters, gauges and fixed-bucket histograms
// behind a process-wide registry.
//
// The hot-path write primitives are lock-free (relaxed atomics); the
// registry itself serializes only registration and snapshotting behind the
// annotated Mutex from util/sync.h.  Call sites pay one name lookup ever by
// caching the returned pointer in a function-local static:
//
//   static obs::Counter* const accepted =
//       obs::Registry()->GetCounter("ingest.accepted");
//   accepted->Increment();
//
// Metric naming scheme (see DESIGN.md §9): lowercase dotted paths rooted at
// the subsystem — "ingest.accepted", "integration.merges",
// "query.seconds".  Histograms that record durations end in ".seconds" and
// use BucketLayout::Latency(); histograms of sizes/counts use
// BucketLayout::Counts().
//
// Results never depend on instrumentation (asserted by
// obs_transparency_test and the stats-smoke CI job).
#ifndef ATYPICAL_OBS_STATS_H_
#define ATYPICAL_OBS_STATS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <string>

#include "util/sync.h"
#include "util/thread_annotations.h"

namespace atypical {
namespace obs {

struct StatsSnapshot;

// Exponential bucket boundaries: bucket i covers values <= base·2^i, plus
// one implicit overflow bucket.  Fixed layouts keep every histogram's wire
// shape identical and snapshots mergeable.
struct BucketLayout {
  double base = 1e-6;
  int num_buckets = 30;

  // 1µs .. ~537s in doubling steps — spans a cache probe to a full
  // year-scale materialization.
  static constexpr BucketLayout Latency() { return {1e-6, 30}; }
  // 1 .. ~5.4e8 in doubling steps — batch sizes, clusters per day.
  static constexpr BucketLayout Counts() { return {1.0, 30}; }

  double UpperBound(int bucket) const;  // +inf for the overflow bucket
  int BucketFor(double value) const;    // num_buckets = overflow

  friend bool operator==(const BucketLayout& a, const BucketLayout& b) {
    return a.base == b.base && a.num_buckets == b.num_buckets;
  }
};

// A monotonically increasing event count.  Lock-free.
class Counter {
 public:
  void Increment() { Add(1); }
  void Add(uint64_t n) { value_.fetch_add(n, std::memory_order_relaxed); }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }

  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

 private:
  friend class StatsRegistry;
  Counter() = default;
  std::atomic<uint64_t> value_{0};
};

// A point-in-time signed level (queue depths, open events).  Lock-free.
class Gauge {
 public:
  void Set(int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { value_.fetch_add(d, std::memory_order_relaxed); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }

  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

 private:
  friend class StatsRegistry;
  Gauge() = default;
  std::atomic<int64_t> value_{0};
};

// Fixed-bucket distribution of non-negative samples.  Record() is lock-free:
// one bucket increment plus CAS loops for the running sum and max.
// Percentiles are interpolated within bucket bounds, so they are estimates
// whose error is bounded by the doubling bucket width.
class Histogram {
 public:
  void Record(double value);

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  double sum() const { return sum_.load(std::memory_order_relaxed); }
  double max() const { return max_.load(std::memory_order_relaxed); }
  uint64_t bucket_count(int bucket) const {
    return buckets_[static_cast<size_t>(bucket)].load(
        std::memory_order_relaxed);
  }
  const BucketLayout& layout() const { return layout_; }

  // q in [0, 1]; 0 with no samples.  Linear interpolation inside the bucket
  // holding the rank; the overflow bucket reports the observed max.
  double Quantile(double q) const;

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

 private:
  friend class StatsRegistry;
  explicit Histogram(const BucketLayout& layout);

  BucketLayout layout_;
  std::unique_ptr<std::atomic<uint64_t>[]> buckets_;  // num_buckets + overflow
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> max_{0.0};
};

// Name → metric table.  One process-global instance behind Registry();
// tests build their own to get hermetic snapshots.
class StatsRegistry {
 public:
  StatsRegistry() = default;
  StatsRegistry(const StatsRegistry&) = delete;
  StatsRegistry& operator=(const StatsRegistry&) = delete;

  // Get-or-create; the returned pointer is stable for the registry's
  // lifetime (cache it).  Re-requesting a histogram with a different layout
  // dies — a name identifies one distribution.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name,
                          const BucketLayout& layout = BucketLayout::Latency());

  // Consistent-enough copy of every metric, sorted by name.  Concurrent
  // writers may be mid-update; each individual load is atomic.
  StatsSnapshot Snapshot() const;

  // Zeroes every registered metric (registrations survive).  Test support;
  // racing Reset with writers loses the concurrent increments.
  void Reset();

 private:
  mutable Mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_
      ATYPICAL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Gauge>> gauges_
      ATYPICAL_GUARDED_BY(mu_);
  std::map<std::string, std::unique_ptr<Histogram>> histograms_
      ATYPICAL_GUARDED_BY(mu_);
};

// The process-wide registry every built-in instrumentation point writes to.
StatsRegistry* Registry();

}  // namespace obs
}  // namespace atypical

#endif  // ATYPICAL_OBS_STATS_H_
