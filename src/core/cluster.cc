#include "core/cluster.h"

#include <algorithm>
#include <cstddef>

#include "util/logging.h"
#include "util/string_util.h"

namespace atypical {

void FeatureVector::Add(uint32_t key, double severity) {
  CHECK_GE(severity, 0.0);
  if (severity == 0.0) return;
  // Fast path: appending in key order keeps the vector clean.
  if (!dirty_ && !entries_.empty() && entries_.back().key == key) {
    entries_.back().severity += severity;
  } else if (!dirty_ && (entries_.empty() || entries_.back().key < key)) {
    entries_.push_back(Entry{key, severity});
  } else {
    entries_.push_back(Entry{key, severity});
    dirty_ = true;
  }
  total_ += severity;
}

void FeatureVector::Compact() const {
  if (!dirty_) return;
  std::sort(entries_.begin(), entries_.end(),
            [](const Entry& a, const Entry& b) { return a.key < b.key; });
  size_t out = 0;
  for (size_t i = 0; i < entries_.size(); ++i) {
    if (out > 0 && entries_[out - 1].key == entries_[i].key) {
      entries_[out - 1].severity += entries_[i].severity;
    } else {
      entries_[out++] = entries_[i];
    }
  }
  entries_.resize(out);  // NOEFFECT(allocates): shrink-only (out <= size())
  dirty_ = false;
}

size_t FeatureVector::size() const {
  Compact();
  return entries_.size();
}

double FeatureVector::Get(uint32_t key) const {
  Compact();
  const auto it = std::lower_bound(
      entries_.begin(), entries_.end(), key,
      [](const Entry& e, uint32_t k) { return e.key < k; });
  if (it == entries_.end() || it->key != key) return 0.0;
  return it->severity;
}

bool FeatureVector::Contains(uint32_t key) const { return Get(key) > 0.0; }

const std::vector<FeatureVector::Entry>& FeatureVector::entries() const {
  Compact();
  return entries_;
}

namespace {

// First index in [lo, entries.size()) whose key is >= `key`, found by
// doubling steps then a binary search over the final bracket.  O(log gap)
// instead of O(gap), which is what makes the skewed intersection cheap.
size_t GallopLowerBound(const std::vector<FeatureVector::Entry>& entries,
                        size_t lo, uint32_t key) {
  size_t step = 1;
  size_t hi = lo;
  while (hi < entries.size() && entries[hi].key < key) {
    lo = hi + 1;
    hi += step;
    step *= 2;
  }
  hi = std::min(hi, entries.size());
  const auto it = std::lower_bound(
      entries.begin() + static_cast<ptrdiff_t>(lo),
      entries.begin() + static_cast<ptrdiff_t>(hi), key,
      [](const FeatureVector::Entry& e, uint32_t k) { return e.key < k; });
  return static_cast<size_t>(it - entries.begin());
}

// When one side is much larger, gallop through it instead of scanning.
// Both paths visit the common keys in the same ascending order and add the
// same values in the same order, so the accumulated sums are bit-identical.
constexpr size_t kGallopSkewFactor = 16;

}  // namespace

std::pair<double, double> FeatureVector::CommonSeverity(
    const FeatureVector& other) const {
  const auto& a = entries();
  const auto& b = other.entries();
  double mine = 0.0;
  double theirs = 0.0;
  size_t i = 0;
  size_t j = 0;
  if (a.size() * kGallopSkewFactor <= b.size() ||
      b.size() * kGallopSkewFactor <= a.size()) {
    // Drive from the small side, gallop in the large one.
    const bool a_small = a.size() <= b.size();
    const auto& small = a_small ? a : b;
    const auto& large = a_small ? b : a;
    size_t pos = 0;
    for (const Entry& e : small) {
      pos = GallopLowerBound(large, pos, e.key);
      if (pos == large.size()) break;
      if (large[pos].key == e.key) {
        mine += a_small ? e.severity : large[pos].severity;
        theirs += a_small ? large[pos].severity : e.severity;
        ++pos;
      }
    }
    return {mine, theirs};
  }
  while (i < a.size() && j < b.size()) {
    if (a[i].key < b[j].key) {
      ++i;
    } else if (a[i].key > b[j].key) {
      ++j;
    } else {
      mine += a[i].severity;
      theirs += b[j].severity;
      ++i;
      ++j;
    }
  }
  return {mine, theirs};
}

FeatureVector FeatureVector::Merge(const FeatureVector& a,
                                   const FeatureVector& b) {
  const auto& ea = a.entries();
  const auto& eb = b.entries();
  FeatureVector out;
  out.entries_.reserve(ea.size() + eb.size());
  size_t i = 0;
  size_t j = 0;
  while (i < ea.size() || j < eb.size()) {
    if (j == eb.size() || (i < ea.size() && ea[i].key < eb[j].key)) {
      out.entries_.push_back(ea[i++]);
    } else if (i == ea.size() || eb[j].key < ea[i].key) {
      out.entries_.push_back(eb[j++]);
    } else {
      out.entries_.push_back(
          Entry{ea[i].key, ea[i].severity + eb[j].severity});
      ++i;
      ++j;
    }
  }
  out.total_ = a.total_ + b.total_;
  return out;
}

FeatureVector::Entry FeatureVector::Top() const {
  const auto& e = entries();
  CHECK(!e.empty()) << "Top() on empty feature";
  // First-max-wins, like the scan this replaces: max_element keeps the
  // earliest of equal-severity entries because the comparator is strict.
  return *std::max_element(e.begin(), e.end(),
                           [](const Entry& a, const Entry& b) {
                             return a.severity < b.severity;
                           });
}

std::vector<FeatureVector::Entry> FeatureVector::TopEntries(size_t k) const {
  std::vector<Entry> sorted = entries();
  const auto mid =
      sorted.begin() +
      static_cast<ptrdiff_t>(std::min(k, sorted.size()));
  // partial_sort suffices: (severity desc, key asc) is a strict total order
  // on deduped entries, so the first k are unique regardless of algorithm.
  std::partial_sort(sorted.begin(), mid, sorted.end(),
                    [](const Entry& a, const Entry& b) {
                      if (a.severity != b.severity)
                        return a.severity > b.severity;
                      return a.key < b.key;
                    });
  if (sorted.size() > k) sorted.resize(k);
  return sorted;
}

uint64_t FeatureVector::ByteSize() const {
  return entries().size() * (sizeof(uint32_t) + sizeof(double));
}

std::string AtypicalCluster::DebugString(const TimeGrid& grid) const {
  if (spatial.empty()) {
    return StrPrintf("cluster %llu (empty)", (unsigned long long)id);
  }
  const FeatureVector::Entry top_sensor = spatial.Top();
  const FeatureVector::Entry top_window = temporal.Top();
  const int minute =
      key_mode == TemporalKeyMode::kTimeOfDay
          ? static_cast<int>(top_window.key) * grid.window_minutes()
          : grid.MinuteOfDay(static_cast<WindowId>(top_window.key));
  return StrPrintf(
      "cluster %llu: severity=%.1f min, %d sensors, %d windows, days %d-%d, "
      "%d micros; hottest sensor s%u (%.1f min), peak window %s (%.1f min)",
      (unsigned long long)id, severity(), num_sensors(), num_windows(),
      first_day, last_day, num_micros(), top_sensor.key, top_sensor.severity,
      ClockLabel(minute).c_str(), top_window.severity);
}

}  // namespace atypical
