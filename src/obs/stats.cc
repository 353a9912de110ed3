#include "obs/stats.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/snapshot.h"
#include "util/logging.h"

namespace atypical {
namespace obs {

double BucketLayout::UpperBound(int bucket) const {
  if (bucket >= num_buckets) return std::numeric_limits<double>::infinity();
  return base * std::ldexp(1.0, bucket);  // base · 2^bucket, exact
}

int BucketLayout::BucketFor(double value) const {
  // Linear in num_buckets (30); the doubling comparison avoids a log() on
  // the hot path and is exact at the boundaries.
  double bound = base;
  for (int i = 0; i < num_buckets; ++i) {
    if (value <= bound) return i;
    bound *= 2.0;
  }
  return num_buckets;  // overflow
}

namespace {

// fetch_add on atomic<double> needs only relaxed read-modify-write; a CAS
// loop keeps us off the C++20 floating fetch_add (not lock-free
// everywhere).
void AtomicAdd(std::atomic<double>* target, double delta) {
  double current = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(current, current + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicMax(std::atomic<double>* target, double value) {
  double current = target->load(std::memory_order_relaxed);
  while (current < value &&
         !target->compare_exchange_weak(current, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace

Histogram::Histogram(const BucketLayout& layout)
    : layout_(layout),
      buckets_(new std::atomic<uint64_t>[static_cast<size_t>(
          layout.num_buckets + 1)]) {
  CHECK_GT(layout.num_buckets, 0);
  CHECK_GT(layout.base, 0.0);
  for (int i = 0; i <= layout_.num_buckets; ++i) {
    buckets_[static_cast<size_t>(i)].store(0, std::memory_order_relaxed);
  }
}

void Histogram::Record(double value) {
  if (std::isnan(value)) return;  // never poison the distribution
  value = std::max(value, 0.0);
  buckets_[static_cast<size_t>(layout_.BucketFor(value))].fetch_add(
      1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  AtomicAdd(&sum_, value);
  AtomicMax(&max_, value);
}

double Histogram::Quantile(double q) const {
  const uint64_t total = count();
  if (total == 0) return 0.0;
  q = std::clamp(q, 0.0, 1.0);
  const double rank = q * static_cast<double>(total);
  double cumulative = 0.0;
  for (int i = 0; i <= layout_.num_buckets; ++i) {
    const uint64_t in_bucket = bucket_count(i);
    if (in_bucket == 0) continue;
    if (cumulative + static_cast<double>(in_bucket) >= rank) {
      if (i == layout_.num_buckets) return max();  // overflow: best estimate
      const double lower = i == 0 ? 0.0 : layout_.UpperBound(i - 1);
      const double upper = layout_.UpperBound(i);
      const double fraction =
          (rank - cumulative) / static_cast<double>(in_bucket);
      return lower + (upper - lower) * fraction;
    }
    cumulative += static_cast<double>(in_bucket);
  }
  return max();
}

Counter* StatsRegistry::GetCounter(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_.emplace(name, std::unique_ptr<Counter>(new Counter()))
             .first;
  }
  return it->second.get();
}

Gauge* StatsRegistry::GetGauge(const std::string& name) {
  MutexLock lock(&mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_.emplace(name, std::unique_ptr<Gauge>(new Gauge())).first;
  }
  return it->second.get();
}

Histogram* StatsRegistry::GetHistogram(const std::string& name,
                                       const BucketLayout& layout) {
  MutexLock lock(&mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(name, std::unique_ptr<Histogram>(new Histogram(layout)))
             .first;
  } else {
    CHECK(it->second->layout() == layout)
        << "histogram '" << name << "' re-requested with a different layout";
  }
  return it->second.get();
}

StatsSnapshot StatsRegistry::Snapshot() const {
  StatsSnapshot snap;
  MutexLock lock(&mu_);
  snap.counters.reserve(counters_.size());
  for (const auto& [name, counter] : counters_) {
    snap.counters.emplace_back(name, counter->value());
  }
  snap.gauges.reserve(gauges_.size());
  for (const auto& [name, gauge] : gauges_) {
    snap.gauges.emplace_back(name, gauge->value());
  }
  snap.histograms.reserve(histograms_.size());
  for (const auto& [name, hist] : histograms_) {
    StatsSnapshot::HistogramData data;
    data.name = name;
    data.count = hist->count();
    data.sum = hist->sum();
    data.max = hist->max();
    data.p50 = hist->Quantile(0.50);
    data.p90 = hist->Quantile(0.90);
    data.p99 = hist->Quantile(0.99);
    for (int i = 0; i <= hist->layout().num_buckets; ++i) {
      const uint64_t in_bucket = hist->bucket_count(i);
      if (in_bucket == 0) continue;
      data.buckets.push_back({hist->layout().UpperBound(i), in_bucket});
    }
    snap.histograms.push_back(std::move(data));
  }
  return snap;
}

void StatsRegistry::Reset() {
  MutexLock lock(&mu_);
  for (const auto& [_, counter] : counters_) {
    counter->value_.store(0, std::memory_order_relaxed);
  }
  for (const auto& [_, gauge] : gauges_) {
    gauge->value_.store(0, std::memory_order_relaxed);
  }
  for (const auto& [_, hist] : histograms_) {
    for (int i = 0; i <= hist->layout_.num_buckets; ++i) {
      hist->buckets_[static_cast<size_t>(i)].store(0,
                                                   std::memory_order_relaxed);
    }
    hist->count_.store(0, std::memory_order_relaxed);
    hist->sum_.store(0.0, std::memory_order_relaxed);
    hist->max_.store(0.0, std::memory_order_relaxed);
  }
}

StatsRegistry* Registry() {
  // Leaked on purpose: instrumented code in static destructors must still
  // find a live registry.
  static StatsRegistry* const registry = new StatsRegistry();
  return registry;
}

}  // namespace obs
}  // namespace atypical
