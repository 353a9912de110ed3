// A literal Algorithm 3, with Algorithm 2 and Eq. 2–4 written out, as the
// oracle for the production driver.
//
// ReferenceIntegrate is the paper's loop and nothing else: it evaluates
// Eq. 2 for every alive pair, with no stage-0 rule and no candidate
// structure.  Hard clustering makes the partition order-dependent, so the
// oracle fixes the same greedy order the driver documents (slot i absorbs
// the lowest-numbered alive slot that qualifies, then rescans).  Its merge
// is Eq. 5/6 on its own cluster type, not the product's MergeClusters, and
// its similarity calls only the product's Balance.  A seeded differential
// sweep then demands that IntegrateClusters matches it bit for bit in
// partition, features and their totals, ids, children, day span, record
// count and dominant event, over populations that exercise both candidate
// rules: pairs that share no sensor and pairs that share no window.
#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/integration.h"
#include "core/similarity.h"
#include "util/random.h"

namespace atypical {
namespace {

// A feature as Def. 4 defines it: key-sorted (key, severity) entries and
// the total severity they distribute.
struct RefFeature {
  std::vector<FeatureVector::Entry> entries;
  double total = 0.0;
};

struct RefCluster {
  ClusterId id = 0;
  RefFeature spatial;
  RefFeature temporal;
  std::vector<ClusterId> micro_ids;  // sorted
  ClusterId left_child = 0;
  ClusterId right_child = 0;
  int first_day = 0;
  int last_day = 0;
  int64_t num_records = 0;
  EventId dominant_true_event = kNoEvent;
};

RefFeature ToRef(const FeatureVector& f) { return {f.entries(), f.total()}; }

RefCluster ToRef(const AtypicalCluster& c) {
  return {c.id,        ToRef(c.spatial), ToRef(c.temporal),
          c.micro_ids, c.left_child,     c.right_child,
          c.first_day, c.last_day,       c.num_records,
          c.dominant_true_event};
}

// Eq. 5/6: a key both features hold gets a.severity + b.severity, every
// other key carries over, and the total is a.total + b.total.
RefFeature MergeFeatures(const RefFeature& a, const RefFeature& b) {
  RefFeature out;
  auto ia = a.entries.begin();
  auto ib = b.entries.begin();
  while (ia != a.entries.end() && ib != b.entries.end()) {
    if (ia->key < ib->key) {
      out.entries.push_back(*ia++);
    } else if (ib->key < ia->key) {
      out.entries.push_back(*ib++);
    } else {
      out.entries.push_back({ia->key, ia->severity + ib->severity});
      ++ia;
      ++ib;
    }
  }
  out.entries.insert(out.entries.end(), ia, a.entries.end());
  out.entries.insert(out.entries.end(), ib, b.entries.end());
  out.total = a.total + b.total;
  return out;
}

// Algorithm 2: the macro-cluster gets a fresh id; its children are the two
// merged clusters; micro ids, day spans and record counts combine; the
// dominant event is the heavier side's (ties go to `a`).
RefCluster ReferenceMerge(const RefCluster& a, const RefCluster& b,
                          ClusterIdGenerator* ids) {
  RefCluster out;
  out.id = ids->Next();
  out.spatial = MergeFeatures(a.spatial, b.spatial);
  out.temporal = MergeFeatures(a.temporal, b.temporal);
  std::set_union(a.micro_ids.begin(), a.micro_ids.end(), b.micro_ids.begin(),
                 b.micro_ids.end(), std::back_inserter(out.micro_ids));
  out.left_child = a.id;
  out.right_child = b.id;
  out.first_day = std::min(a.first_day, b.first_day);
  out.last_day = std::max(a.last_day, b.last_day);
  out.num_records = a.num_records + b.num_records;
  out.dominant_true_event = a.spatial.total >= b.spatial.total
                                ? a.dominant_true_event
                                : b.dominant_true_event;
  return out;
}

// Eq. 3/4: g of the two shares of each side's total that lies on common
// keys, summed in ascending key order and capped at 1 (the sums and the
// total accumulate in different orders and may differ by a rounding step).
double FeatureSimilarity(const RefFeature& a, const RefFeature& b,
                         BalanceFunction g) {
  if (a.total <= 0.0 || b.total <= 0.0) return 0.0;
  double common_a = 0.0;
  double common_b = 0.0;
  for (const FeatureVector::Entry& ea : a.entries) {
    for (const FeatureVector::Entry& eb : b.entries) {
      if (ea.key == eb.key) {
        common_a += ea.severity;
        common_b += eb.severity;
      }
    }
  }
  return Balance(g, std::min(common_a / a.total, 1.0),
                 std::min(common_b / b.total, 1.0));
}

// Eq. 2.
double ReferenceSimilarity(const RefCluster& a, const RefCluster& b,
                           BalanceFunction g) {
  return 0.5 * (FeatureSimilarity(a.spatial, b.spatial, g) +
                FeatureSimilarity(a.temporal, b.temporal, g));
}

std::vector<RefCluster> ReferenceIntegrate(
    const std::vector<AtypicalCluster>& micros, BalanceFunction g,
    double delta_sim, ClusterIdGenerator* ids) {
  std::vector<RefCluster> clusters;
  for (const AtypicalCluster& c : micros) clusters.push_back(ToRef(c));
  const size_t n = clusters.size();
  std::vector<bool> alive(n, true);
  for (size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    for (bool merged = true; merged;) {
      merged = false;
      for (size_t j = 0; j < n; ++j) {
        if (j == i || !alive[j]) continue;
        if (ReferenceSimilarity(clusters[i], clusters[j], g) > delta_sim) {
          clusters[i] = ReferenceMerge(clusters[i], clusters[j], ids);
          alive[j] = false;
          merged = true;
          break;
        }
      }
    }
  }
  std::vector<RefCluster> out;
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) out.push_back(std::move(clusters[i]));
  }
  return out;
}

// Sparse sensors over dense time-of-day windows, the shape query-time
// inputs have: most pairs share a window, far fewer share a sensor, so at
// δsim >= 0.5 most pairs are never candidates.  Both features carry the
// same severities (Σμ == Σν).
std::vector<AtypicalCluster> RandomMicros(int count, uint64_t seed,
                                          ClusterIdGenerator* ids) {
  Rng rng(seed);
  std::vector<AtypicalCluster> out;
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c;
    c.id = ids->Next();
    c.micro_ids = {c.id};
    c.key_mode = TemporalKeyMode::kTimeOfDay;
    c.dominant_true_event = 1 + static_cast<EventId>(i % 7);
    c.first_day = static_cast<int>(rng.UniformInt(uint64_t{20}));
    c.last_day = c.first_day + static_cast<int>(rng.UniformInt(uint64_t{3}));
    c.num_records = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    const int keys = 1 + static_cast<int>(rng.UniformInt(uint64_t{6}));
    for (int k = 0; k < keys; ++k) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{40})),
                    severity);
      c.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{8})),
                     severity);
    }
    out.push_back(std::move(c));
  }
  return out;
}

// Micros of a few dozen events over 400 sensors: each micro takes 1–3 of
// its event's 5 sensors and 1–3 of its 4 windows, so same-event micros
// chain into large macro-clusters through shared sensors while most pairs
// share no sensor at all.  The merge-heavy regime, where candidate sets
// grow through every absorbed slot.
std::vector<AtypicalCluster> EventMicros(int count, uint64_t seed,
                                         ClusterIdGenerator* ids) {
  Rng rng(seed);
  const int events = count / 6;
  std::vector<uint32_t> first_sensor(events);
  std::vector<uint32_t> first_window(events);
  for (int e = 0; e < events; ++e) {
    first_sensor[e] = static_cast<uint32_t>(rng.UniformInt(uint64_t{395}));
    first_window[e] = static_cast<uint32_t>(rng.UniformInt(uint64_t{20}));
  }
  std::vector<AtypicalCluster> out;
  for (int i = 0; i < count; ++i) {
    const size_t e = rng.UniformInt(static_cast<uint64_t>(events));
    AtypicalCluster c;
    c.id = ids->Next();
    c.micro_ids = {c.id};
    c.key_mode = TemporalKeyMode::kTimeOfDay;
    c.dominant_true_event = 1 + e;
    c.first_day = static_cast<int>(rng.UniformInt(uint64_t{20}));
    c.last_day = c.first_day;
    c.num_records = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    const int keys = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    for (int k = 0; k < keys; ++k) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(
          first_sensor[e] + static_cast<uint32_t>(rng.UniformInt(uint64_t{5})),
          severity);
      c.temporal.Add(
          first_window[e] + static_cast<uint32_t>(rng.UniformInt(uint64_t{4})),
          severity);
    }
    out.push_back(std::move(c));
  }
  return out;
}

// Micros of a few overlapping events over 60 sensors whose windows spread
// over a 288-window day: micros share sensors within and across events, but
// windows mostly only within an event's 3-window core, which two micros in
// three keep to.  So most sensor-sharing pairs share no window, and the
// rest merge.  One micro in ten has no temporal
// feature, one in five also holds a window of subnormal mass anywhere in
// the day, and every micro offers a zero-severity window (which Add()
// drops).  kAbsolute micros key their windows by absolute WindowId
// (day · 288 + window of day) on two days near WindowId 1,000,000.
std::vector<AtypicalCluster> SpreadWindowMicros(int count, uint64_t seed,
                                                TemporalKeyMode key_mode,
                                                ClusterIdGenerator* ids) {
  constexpr uint32_t kWindowsPerDay = 288;
  Rng rng(seed);
  const int events = count / 6;
  std::vector<uint32_t> first_sensor(events);
  std::vector<uint32_t> first_window(events);
  for (int e = 0; e < events; ++e) {
    first_sensor[e] = static_cast<uint32_t>(rng.UniformInt(uint64_t{55}));
    first_window[e] =
        static_cast<uint32_t>(rng.UniformInt(uint64_t{kWindowsPerDay - 3}));
  }
  std::vector<AtypicalCluster> out;
  for (int i = 0; i < count; ++i) {
    const size_t e = rng.UniformInt(static_cast<uint64_t>(events));
    AtypicalCluster c;
    c.id = ids->Next();
    c.micro_ids = {c.id};
    c.key_mode = key_mode;
    c.dominant_true_event = 1 + e;
    c.first_day = key_mode == TemporalKeyMode::kAbsolute
                      ? 3472 + static_cast<int>(rng.UniformInt(uint64_t{2}))
                      : static_cast<int>(rng.UniformInt(uint64_t{20}));
    c.last_day = c.first_day;
    c.num_records = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    const uint32_t day_base =
        key_mode == TemporalKeyMode::kAbsolute
            ? static_cast<uint32_t>(c.first_day) * kWindowsPerDay
            : 0;
    const bool in_core = rng.UniformInt(uint64_t{3}) != 0;
    const bool no_windows = rng.UniformInt(uint64_t{10}) == 0;
    const int keys = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    for (int k = 0; k < keys; ++k) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(
          first_sensor[e] + static_cast<uint32_t>(rng.UniformInt(uint64_t{5})),
          severity);
      const uint32_t window =
          in_core ? first_window[e] +
                        static_cast<uint32_t>(rng.UniformInt(uint64_t{3}))
                  : static_cast<uint32_t>(rng.UniformInt(kWindowsPerDay));
      if (!no_windows) c.temporal.Add(day_base + window, severity);
    }
    const uint32_t stray = day_base + static_cast<uint32_t>(
                                          rng.UniformInt(kWindowsPerDay));
    c.temporal.Add(stray, 0.0);
    if (!no_windows && rng.UniformInt(uint64_t{5}) == 0) {
      c.temporal.Add(stray, 0x1p-1074);
    }
    out.push_back(std::move(c));
  }
  return out;
}

// Micros of a few events over 60 sensors on three consecutive days, keyed
// kAbsolute (day · 288 + window of day), so the inputs' windows span about
// 3 × 288 keys: more than the 512 bits of the driver's widest window mask,
// which then folds keys modulo 512.  Each event has a core of 3 windows on
// the first day and a twin core exactly 512 keys later (64 windows earlier
// in the day, on the third day): a core micro and a twin micro of one event
// share sensors and can land on the same mask bit, yet share no window.
// One micro in four holds windows anywhere in the three days instead.
constexpr uint32_t kFoldBits = 512;

std::vector<AtypicalCluster> FoldedWindowMicros(int count, uint64_t seed,
                                                ClusterIdGenerator* ids) {
  constexpr uint32_t kWindowsPerDay = 288;
  constexpr uint32_t kTwinShift = 2 * kWindowsPerDay - kFoldBits;  // 64
  constexpr int kFirstDay = 3472;
  Rng rng(seed);
  const int events = count / 6;
  std::vector<uint32_t> first_sensor(events);
  std::vector<uint32_t> first_window(events);
  for (int e = 0; e < events; ++e) {
    first_sensor[e] = static_cast<uint32_t>(rng.UniformInt(uint64_t{55}));
    first_window[e] = kTwinShift + static_cast<uint32_t>(rng.UniformInt(
                                       uint64_t{kWindowsPerDay - kTwinShift - 3}));
  }
  std::vector<AtypicalCluster> out;
  for (int i = 0; i < count; ++i) {
    const size_t e = rng.UniformInt(static_cast<uint64_t>(events));
    const uint64_t kind = rng.UniformInt(uint64_t{8});
    const bool spread = kind < 2;
    const bool twin = kind >= 5;
    AtypicalCluster c;
    c.id = ids->Next();
    c.micro_ids = {c.id};
    c.key_mode = TemporalKeyMode::kAbsolute;
    c.dominant_true_event = 1 + e;
    c.first_day =
        kFirstDay + (spread ? static_cast<int>(rng.UniformInt(uint64_t{3}))
                     : twin ? 2
                            : 0);
    c.last_day = c.first_day;
    c.num_records = 1 + static_cast<int64_t>(rng.UniformInt(uint64_t{40}));
    const uint32_t day_base =
        static_cast<uint32_t>(c.first_day) * kWindowsPerDay;
    const int keys = 1 + static_cast<int>(rng.UniformInt(uint64_t{3}));
    for (int k = 0; k < keys; ++k) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(
          first_sensor[e] + static_cast<uint32_t>(rng.UniformInt(uint64_t{5})),
          severity);
      const uint32_t core =
          first_window[e] + static_cast<uint32_t>(rng.UniformInt(uint64_t{3}));
      const uint32_t window =
          spread ? static_cast<uint32_t>(rng.UniformInt(kWindowsPerDay))
                 : core - (twin ? kTwinShift : 0);
      c.temporal.Add(day_base + window, severity);
    }
    out.push_back(std::move(c));
  }
  return out;
}

void ExpectSameFeature(const FeatureVector& got, const RefFeature& want) {
  EXPECT_EQ(got.entries(), want.entries);
  EXPECT_EQ(got.total(), want.total);
}

void ExpectSameAsReference(const std::vector<AtypicalCluster>& got,
                           const std::vector<RefCluster>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    SCOPED_TRACE("cluster " + std::to_string(i));
    EXPECT_EQ(got[i].id, want[i].id);
    EXPECT_EQ(got[i].micro_ids, want[i].micro_ids);
    ExpectSameFeature(got[i].spatial, want[i].spatial);
    ExpectSameFeature(got[i].temporal, want[i].temporal);
    EXPECT_EQ(got[i].left_child, want[i].left_child);
    EXPECT_EQ(got[i].right_child, want[i].right_child);
    EXPECT_EQ(got[i].first_day, want[i].first_day);
    EXPECT_EQ(got[i].last_day, want[i].last_day);
    EXPECT_EQ(got[i].num_records, want[i].num_records);
    EXPECT_EQ(got[i].dominant_true_event, want[i].dominant_true_event);
  }
}

// Runs IntegrateClusters against the oracle on `micros` and returns the
// oracle's partition size.
size_t ExpectDriverMatchesReference(const std::vector<AtypicalCluster>& micros,
                                    BalanceFunction g, double delta_sim) {
  ClusterIdGenerator ref_ids(1000);
  const auto want = ReferenceIntegrate(micros, g, delta_sim, &ref_ids);
  // The oracle's output is the Algorithm 3 fixpoint.
  for (size_t i = 0; i < want.size(); ++i) {
    for (size_t j = i + 1; j < want.size(); ++j) {
      EXPECT_LE(ReferenceSimilarity(want[i], want[j], g), delta_sim);
    }
  }
  IntegrationParams params;
  params.g = g;
  params.delta_sim = delta_sim;
  ClusterIdGenerator ids(1000);
  ExpectSameAsReference(IntegrateClusters(micros, params, &ids), want);
  return want.size();
}

constexpr BalanceFunction kAllBalanceFunctions[] = {
    BalanceFunction::kMax, BalanceFunction::kMin,
    BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
    BalanceFunction::kHarmonicMean};

// ExpectDriverMatchesReference over `micros` in its given order and two
// seeded shuffles of it.
void ExpectEveryOrderMatchesReference(std::vector<AtypicalCluster> micros,
                                      BalanceFunction g, double delta_sim) {
  Rng shuffle(static_cast<uint64_t>(delta_sim * 100));
  for (int order = 0; order < 3; ++order) {
    if (order > 0) {
      for (size_t i = micros.size(); i > 1; --i) {
        std::swap(micros[i - 1], micros[shuffle.UniformInt(uint64_t{i})]);
      }
    }
    SCOPED_TRACE(std::string("g=") + BalanceFunctionName(g) +
                 " delta=" + std::to_string(delta_sim) +
                 " order=" + std::to_string(order));
    ExpectDriverMatchesReference(micros, g, delta_sim);
  }
}

TEST(IntegrationReferenceTest, DriverMatchesLiteralAlgorithm3) {
  for (const BalanceFunction g : kAllBalanceFunctions) {
    for (const double delta_sim : {0.25, 0.5, 0.75}) {
      ClusterIdGenerator micro_ids(1);
      ExpectEveryOrderMatchesReference(
          RandomMicros(60, static_cast<uint64_t>(g) * 10 + 1, &micro_ids), g,
          delta_sim);
    }
  }
}

TEST(IntegrationReferenceTest, DriverMatchesLiteralAlgorithm3WhenWindowsSpread) {
  for (const TemporalKeyMode key_mode :
       {TemporalKeyMode::kTimeOfDay, TemporalKeyMode::kAbsolute}) {
    ClusterIdGenerator shape_ids(1);
    const std::vector<AtypicalCluster> micros =
        SpreadWindowMicros(60, 7, key_mode, &shape_ids);
    // The population has the intended shape: most pairs that share a
    // sensor share no window.
    size_t share_sensor = 0;
    size_t share_both = 0;
    for (size_t i = 0; i < micros.size(); ++i) {
      for (size_t j = i + 1; j < micros.size(); ++j) {
        if (SpatialSimilarity(micros[i], micros[j], BalanceFunction::kMax) ==
            0.0) {
          continue;
        }
        ++share_sensor;
        if (micros[i].temporal.CommonSeverity(micros[j].temporal).first >
            0.0) {
          ++share_both;
        }
      }
    }
    EXPECT_LT(2 * share_both, share_sensor);
    // ... and some of the rest merge at δsim = 0.5.
    ClusterIdGenerator merge_ids(1000);
    EXPECT_LT(ReferenceIntegrate(micros, BalanceFunction::kArithmeticMean,
                                 0.5, &merge_ids)
                  .size(),
              micros.size());
    for (const BalanceFunction g : kAllBalanceFunctions) {
      for (const double delta_sim : {0.25, 0.5, 0.75}) {
        SCOPED_TRACE(std::string("key_mode=") +
                     (key_mode == TemporalKeyMode::kAbsolute ? "absolute"
                                                             : "time_of_day"));
        ClusterIdGenerator micro_ids(1);
        ExpectEveryOrderMatchesReference(
            SpreadWindowMicros(60, static_cast<uint64_t>(g) * 10 + 7, key_mode,
                               &micro_ids),
            g, delta_sim);
      }
    }
  }
}

TEST(IntegrationReferenceTest, DriverMatchesLiteralAlgorithm3WhenMergeHeavy) {
  for (const double delta_sim : {0.5, 0.75}) {
    for (uint64_t seed = 1; seed <= 3; ++seed) {
      SCOPED_TRACE("delta=" + std::to_string(delta_sim) +
                   " seed=" + std::to_string(seed));
      ClusterIdGenerator micro_ids(1);
      const std::vector<AtypicalCluster> micros =
          EventMicros(240, seed, &micro_ids);
      const size_t macros = ExpectDriverMatchesReference(
          micros, BalanceFunction::kArithmeticMean, delta_sim);
      // At least one input in five is absorbed.
      EXPECT_LE(5 * macros, 4 * micros.size());
    }
  }
}

// Pairs that share a sensor and no window but hold two windows whose keys
// are congruent modulo 512: a folded window mask cannot tell them from
// pairs that share a window.
size_t FoldCollisionsSharingNoWindow(
    const std::vector<AtypicalCluster>& micros) {
  size_t collisions = 0;
  for (size_t i = 0; i < micros.size(); ++i) {
    for (size_t j = i + 1; j < micros.size(); ++j) {
      if (micros[i].spatial.CommonSeverity(micros[j].spatial).first == 0.0 ||
          micros[i].temporal.CommonSeverity(micros[j].temporal).first > 0.0) {
        continue;
      }
      bool collide = false;
      for (const auto& a : micros[i].temporal.entries()) {
        for (const auto& b : micros[j].temporal.entries()) {
          collide |= (a.key - b.key) % kFoldBits == 0;
        }
      }
      if (collide) ++collisions;
    }
  }
  return collisions;
}

TEST(IntegrationReferenceTest, DriverMatchesLiteralAlgorithm3WhenWindowMasksFold) {
  for (const BalanceFunction g : kAllBalanceFunctions) {
    for (const double delta_sim : {0.5, 0.75}) {
      ClusterIdGenerator micro_ids(1);
      const std::vector<AtypicalCluster> micros =
          FoldedWindowMicros(60, static_cast<uint64_t>(g) * 10 + 11, &micro_ids);
      // The population has the intended shape: its windows span more than
      // 512 keys, some sensor-sharing pairs collide modulo 512, and some
      // pairs merge.
      uint32_t min_key = micros[0].temporal.entries().front().key;
      uint32_t max_key = min_key;
      for (const AtypicalCluster& c : micros) {
        min_key = std::min(min_key, c.temporal.entries().front().key);
        max_key = std::max(max_key, c.temporal.entries().back().key);
      }
      EXPECT_GT(max_key - min_key + 1, kFoldBits);
      EXPECT_GT(FoldCollisionsSharingNoWindow(micros), 0u);
      ClusterIdGenerator merge_ids(1000);
      EXPECT_LT(ReferenceIntegrate(micros, g, delta_sim, &merge_ids).size(),
                micros.size());
      ExpectEveryOrderMatchesReference(micros, g, delta_sim);
    }
  }
}

// `micros` with every TF key k replaced by key_of(k), each feature rebuilt
// by adds in ascending key order.
template <typename KeyOf>
std::vector<AtypicalCluster> RekeyedWindows(std::vector<AtypicalCluster> micros,
                                            KeyOf key_of) {
  for (AtypicalCluster& c : micros) {
    FeatureVector temporal;
    for (const auto& e : c.temporal.entries()) {
      temporal.Add(key_of(e.key), e.severity);
    }
    c.temporal = std::move(temporal);
  }
  return micros;
}

TEST(IntegrationReferenceTest, FoldedWindowMasksEvaluateNoExtraPair) {
  // Replacing each window key by its rank among the population's keys
  // keeps every shared window and every severity sum, and brings the span
  // under 512 keys, where each key has its own mask bit.  The folded run
  // must evaluate exactly the pairs of the unfolded one.
  for (const BalanceFunction g : kAllBalanceFunctions) {
    for (const double delta_sim : {0.5, 0.75}) {
      SCOPED_TRACE(std::string("g=") + BalanceFunctionName(g) +
                   " delta=" + std::to_string(delta_sim));
      ClusterIdGenerator micro_ids(1);
      const std::vector<AtypicalCluster> generated =
          FoldedWindowMicros(60, static_cast<uint64_t>(g) * 10 + 11, &micro_ids);
      std::vector<uint32_t> keys;
      for (const AtypicalCluster& c : generated) {
        for (const auto& e : c.temporal.entries()) keys.push_back(e.key);
      }
      std::sort(keys.begin(), keys.end());
      keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
      ASSERT_LT(keys.size(), kFoldBits);
      const auto folded =
          RekeyedWindows(generated, [](uint32_t key) { return key; });
      const auto ranked = RekeyedWindows(generated, [&keys](uint32_t key) {
        return static_cast<uint32_t>(
            std::lower_bound(keys.begin(), keys.end(), key) - keys.begin());
      });
      ASSERT_GT(FoldCollisionsSharingNoWindow(folded), 0u);
      ASSERT_EQ(FoldCollisionsSharingNoWindow(ranked), 0u);

      IntegrationParams params;
      params.g = g;
      params.delta_sim = delta_sim;
      ClusterIdGenerator folded_ids(1000);
      ClusterIdGenerator ranked_ids(1000);
      IntegrationStats folded_stats;
      IntegrationStats ranked_stats;
      const auto folded_out =
          IntegrateClusters(folded, params, &folded_ids, &folded_stats);
      const auto ranked_out =
          IntegrateClusters(ranked, params, &ranked_ids, &ranked_stats);
      EXPECT_EQ(folded_stats.similarity_checks, ranked_stats.similarity_checks);
      EXPECT_EQ(folded_stats.merges, ranked_stats.merges);
      ASSERT_EQ(folded_out.size(), ranked_out.size());
      for (size_t i = 0; i < folded_out.size(); ++i) {
        EXPECT_EQ(folded_out[i].id, ranked_out[i].id);
        EXPECT_EQ(folded_out[i].micro_ids, ranked_out[i].micro_ids);
      }
    }
  }
}

TEST(IntegrationReferenceTest, FoldCollisionIsNeverEvaluated) {
  // Two micros on the same sensor whose only windows lie `gap` keys apart.
  // At a gap of 512 the span is 513 keys and both windows fold onto one
  // mask bit; the masks meet, but the pair shares no window, so it is not
  // evaluated.  At 513 the bits differ.
  constexpr uint32_t kBase = 1000000;
  for (const uint32_t gap : {kFoldBits, kFoldBits + 1}) {
    ClusterIdGenerator ids(1);
    std::vector<AtypicalCluster> micros(2);
    for (uint32_t m = 0; m < 2; ++m) {
      AtypicalCluster& c = micros[m];
      c.id = ids.Next();
      c.micro_ids = {c.id};
      c.key_mode = TemporalKeyMode::kAbsolute;
      c.spatial.Add(7, 10.0);
      c.temporal.Add(kBase + m * gap, 10.0);
    }
    ASSERT_EQ(FoldCollisionsSharingNoWindow(micros), gap == kFoldBits ? 1u : 0u);
    for (const BalanceFunction g : kAllBalanceFunctions) {
      for (const double delta_sim : {0.5, 0.75}) {
        SCOPED_TRACE(std::string("g=") + BalanceFunctionName(g) +
                     " delta=" + std::to_string(delta_sim) +
                     " gap=" + std::to_string(gap));
        IntegrationParams params;
        params.g = g;
        params.delta_sim = delta_sim;
        IntegrationStats stats;
        ClusterIdGenerator merge_ids(100);
        const auto out = IntegrateClusters(micros, params, &merge_ids, &stats);
        EXPECT_EQ(out.size(), 2u);
        EXPECT_EQ(stats.merges, 0u);
        EXPECT_EQ(stats.similarity_checks, 0u);
      }
    }
  }
}

}  // namespace
}  // namespace atypical
