// A literal Algorithm 3 as the oracle for the production driver.
//
// ReferenceIntegrate is the paper's loop and nothing else: it evaluates
// Similarity() (Eq. 2) for every alive pair, with no stage-0 rule and no
// candidate structure.  Hard clustering makes the partition
// order-dependent, so the oracle fixes the same greedy order the driver
// documents (slot i absorbs the lowest-numbered alive slot that qualifies,
// then rescans).  A seeded differential sweep then demands that
// IntegrateClusters matches it in partition, features, ids, children, day
// span and record count, over populations that exercise both candidate
// rules: pairs that share no sensor and pairs that share no window.
#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "core/integration.h"
#include "core/merge.h"
#include "core/similarity.h"
#include "util/random.h"

namespace atypical {
namespace {

std::vector<AtypicalCluster> ReferenceIntegrate(
    std::vector<AtypicalCluster> clusters, BalanceFunction g,
    double delta_sim, ClusterIdGenerator* ids) {
  const size_t n = clusters.size();
  std::vector<bool> alive(n, true);
  for (size_t i = 0; i < n; ++i) {
    if (!alive[i]) continue;
    for (bool merged = true; merged;) {
      merged = false;
      for (size_t j = 0; j < n; ++j) {
        if (j == i || !alive[j]) continue;
        if (Similarity(clusters[i], clusters[j], g) > delta_sim) {
          clusters[i] = MergeClusters(clusters[i], clusters[j], ids);
          alive[j] = false;
          merged = true;
          break;
        }
      }
    }
  }
  std::vector<AtypicalCluster> out;
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

void ExpectSameAsReference(const std::vector<AtypicalCluster>& got,
                           const std::vector<AtypicalCluster>& want) {
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "cluster " << i;
    EXPECT_EQ(got[i].micro_ids, want[i].micro_ids) << "cluster " << i;
    EXPECT_EQ(got[i].spatial, want[i].spatial) << "cluster " << i;
    EXPECT_EQ(got[i].temporal, want[i].temporal) << "cluster " << i;
    EXPECT_EQ(got[i].left_child, want[i].left_child) << "cluster " << i;
    EXPECT_EQ(got[i].right_child, want[i].right_child) << "cluster " << i;
    EXPECT_EQ(got[i].first_day, want[i].first_day) << "cluster " << i;
    EXPECT_EQ(got[i].last_day, want[i].last_day) << "cluster " << i;
    EXPECT_EQ(got[i].num_records, want[i].num_records) << "cluster " << i;
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
      EXPECT_LE(Similarity(want[i], want[j], g), delta_sim);
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

}  // namespace
}  // namespace atypical
