#include "core/cluster.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>
#include <vector>

#include "util/random.h"

namespace atypical {
namespace {

TEST(FeatureVectorTest, StartsEmpty) {
  FeatureVector f;
  EXPECT_TRUE(f.empty());
  EXPECT_EQ(f.size(), 0u);
  EXPECT_DOUBLE_EQ(f.total(), 0.0);
  EXPECT_DOUBLE_EQ(f.Get(5), 0.0);
  EXPECT_FALSE(f.Contains(5));
}

TEST(FeatureVectorTest, AddAccumulatesPerKey) {
  FeatureVector f;
  f.Add(3, 2.0);
  f.Add(1, 1.0);
  f.Add(3, 4.0);
  EXPECT_EQ(f.size(), 2u);
  EXPECT_DOUBLE_EQ(f.Get(3), 6.0);
  EXPECT_DOUBLE_EQ(f.Get(1), 1.0);
  EXPECT_DOUBLE_EQ(f.total(), 7.0);
}

TEST(FeatureVectorTest, ZeroSeverityIsIgnored) {
  FeatureVector f;
  f.Add(1, 0.0);
  EXPECT_TRUE(f.empty());
}

TEST(FeatureVectorTest, EntriesSortedByKey) {
  FeatureVector f;
  f.Add(9, 1.0);
  f.Add(2, 1.0);
  f.Add(5, 1.0);
  f.Add(2, 1.0);
  const auto& entries = f.entries();
  ASSERT_EQ(entries.size(), 3u);
  EXPECT_EQ(entries[0].key, 2u);
  EXPECT_EQ(entries[1].key, 5u);
  EXPECT_EQ(entries[2].key, 9u);
  EXPECT_DOUBLE_EQ(entries[0].severity, 2.0);
}

TEST(FeatureVectorTest, InOrderAppendsFastPath) {
  FeatureVector f;
  for (uint32_t k = 0; k < 100; ++k) f.Add(k, 1.0);
  EXPECT_EQ(f.size(), 100u);
  EXPECT_DOUBLE_EQ(f.total(), 100.0);
}

TEST(FeatureVectorTest, CommonSeverityOverSharedKeys) {
  FeatureVector a;
  a.Add(1, 10.0);
  a.Add(2, 20.0);
  a.Add(3, 30.0);
  FeatureVector b;
  b.Add(2, 5.0);
  b.Add(3, 7.0);
  b.Add(4, 100.0);
  const auto [mine, theirs] = a.CommonSeverity(b);
  EXPECT_DOUBLE_EQ(mine, 50.0);   // a's severity on keys {2,3}
  EXPECT_DOUBLE_EQ(theirs, 12.0);  // b's severity on keys {2,3}
}

TEST(FeatureVectorTest, CommonSeverityDisjointIsZero) {
  FeatureVector a;
  a.Add(1, 10.0);
  FeatureVector b;
  b.Add(2, 10.0);
  const auto [mine, theirs] = a.CommonSeverity(b);
  EXPECT_DOUBLE_EQ(mine, 0.0);
  EXPECT_DOUBLE_EQ(theirs, 0.0);
}

TEST(FeatureVectorTest, MergeFollowsEq5) {
  FeatureVector a;
  a.Add(1, 10.0);
  a.Add(2, 20.0);
  FeatureVector b;
  b.Add(2, 5.0);
  b.Add(4, 3.0);
  const FeatureVector merged = FeatureVector::Merge(a, b);
  EXPECT_EQ(merged.size(), 3u);
  EXPECT_DOUBLE_EQ(merged.Get(1), 10.0);  // carried over
  EXPECT_DOUBLE_EQ(merged.Get(2), 25.0);  // accumulated (common key)
  EXPECT_DOUBLE_EQ(merged.Get(4), 3.0);   // carried over
  EXPECT_DOUBLE_EQ(merged.total(), a.total() + b.total());
}

TEST(FeatureVectorTest, MergeWithEmpty) {
  FeatureVector a;
  a.Add(1, 2.0);
  const FeatureVector empty;
  EXPECT_EQ(FeatureVector::Merge(a, empty), a);
  EXPECT_EQ(FeatureVector::Merge(empty, a), a);
}

TEST(FeatureVectorTest, TopReturnsHighestSeverity) {
  FeatureVector f;
  f.Add(1, 5.0);
  f.Add(2, 50.0);
  f.Add(3, 12.0);
  EXPECT_EQ(f.Top().key, 2u);
  EXPECT_DOUBLE_EQ(f.Top().severity, 50.0);
}

TEST(FeatureVectorTest, TopEntriesOrderedDescending) {
  FeatureVector f;
  f.Add(1, 5.0);
  f.Add(2, 50.0);
  f.Add(3, 12.0);
  f.Add(4, 12.0);
  const auto top = f.TopEntries(3);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].key, 2u);
  EXPECT_EQ(top[1].key, 3u);  // tie broken by key
  EXPECT_EQ(top[2].key, 4u);
}

TEST(FeatureVectorDeathTest, TopOnEmptyDies) {
  const FeatureVector f;
  EXPECT_DEATH((void)f.Top(), "Check failed");
}

TEST(FeatureVectorDeathTest, NegativeSeverityDies) {
  FeatureVector f;
  EXPECT_DEATH(f.Add(1, -1.0), "Check failed");
}

TEST(FeatureVectorTest, RandomizedAddMatchesReferenceMap) {
  Rng rng(77);
  FeatureVector f;
  std::map<uint32_t, double> reference;
  for (int i = 0; i < 5000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.UniformInt(uint64_t{64}));
    const double severity = rng.Uniform(0.1, 5.0);
    f.Add(key, severity);
    reference[key] += severity;
  }
  ASSERT_EQ(f.size(), reference.size());
  double total = 0.0;
  for (const auto& [key, severity] : reference) {
    EXPECT_NEAR(f.Get(key), severity, 1e-9);
    total += severity;
  }
  EXPECT_NEAR(f.total(), total, 1e-6);
}

TEST(AtypicalClusterTest, SeverityInvariantHoldsByConstruction) {
  // Σμ == Σν: both features distribute the same record severities.
  AtypicalCluster c;
  struct Rec {
    uint32_t sensor;
    uint32_t window;
    double severity;
  };
  const std::vector<Rec> recs = {
      {1, 10, 4.0}, {1, 11, 5.0}, {2, 11, 5.0}, {3, 12, 5.0}, {4, 12, 2.0}};
  for (const Rec& r : recs) {
    c.spatial.Add(r.sensor, r.severity);
    c.temporal.Add(r.window, r.severity);
  }
  EXPECT_DOUBLE_EQ(c.spatial.total(), c.temporal.total());
  EXPECT_DOUBLE_EQ(c.severity(), 21.0);
  EXPECT_EQ(c.num_sensors(), 4);
  EXPECT_EQ(c.num_windows(), 3);
}

TEST(AtypicalClusterTest, DebugStringMentionsKeyFacts) {
  AtypicalCluster c;
  c.id = 7;
  c.spatial.Add(12, 182.0);
  c.temporal.Add(32, 182.0);  // window 32 of a 15-min grid = 8:00am
  c.key_mode = TemporalKeyMode::kTimeOfDay;
  c.micro_ids = {7};
  const std::string s = c.DebugString(TimeGrid(15));
  EXPECT_NE(s.find("cluster 7"), std::string::npos);
  EXPECT_NE(s.find("s12"), std::string::npos);
  EXPECT_NE(s.find("8:00am"), std::string::npos);
}

TEST(AtypicalClusterTest, EmptyClusterDebugString) {
  AtypicalCluster c;
  c.id = 3;
  EXPECT_NE(c.DebugString(TimeGrid(15)).find("empty"), std::string::npos);
}

TEST(ClusterIdGeneratorTest, MonotonicallyIncreasing) {
  ClusterIdGenerator ids(10);
  EXPECT_EQ(ids.Next(), 10u);
  EXPECT_EQ(ids.Next(), 11u);
  EXPECT_EQ(ids.Next(), 12u);
}

TEST(FeatureVectorTest, ByteSizeGrowsWithEntries) {
  FeatureVector small;
  small.Add(1, 1.0);
  FeatureVector big;
  for (uint32_t k = 0; k < 100; ++k) big.Add(k, 1.0);
  EXPECT_GT(big.ByteSize(), small.ByteSize());
}

// ---- adversarial insertion orders vs. a brute-force map reference ----
//
// Severities are dyadic rationals (multiples of 0.25), so every partial sum
// is exact in binary floating point and the comparisons below can demand
// exact equality regardless of accumulation order.

void ExpectMatchesReference(const FeatureVector& f,
                            const std::map<uint32_t, double>& reference) {
  const auto& entries = f.entries();
  ASSERT_EQ(entries.size(), reference.size());
  size_t i = 0;
  double total = 0.0;
  for (const auto& [key, severity] : reference) {
    EXPECT_EQ(entries[i].key, key);
    EXPECT_DOUBLE_EQ(entries[i].severity, severity);
    total += severity;
    ++i;
  }
  EXPECT_DOUBLE_EQ(f.total(), total);
}

TEST(FeatureVectorAdversarialTest, DescendingKeys) {
  FeatureVector f;
  std::map<uint32_t, double> reference;
  for (uint32_t k = 50; k > 0; --k) {
    const double severity = 0.25 * static_cast<double>(k);
    f.Add(k, severity);
    reference[k] += severity;
  }
  ExpectMatchesReference(f, reference);
}

TEST(FeatureVectorAdversarialTest, InterleavedDuplicates) {
  FeatureVector f;
  std::map<uint32_t, double> reference;
  for (int round = 0; round < 8; ++round) {
    for (uint32_t k : {7u, 3u, 7u, 1u, 3u, 9u, 7u}) {
      const double severity = 0.25 * static_cast<double>(round + 1);
      f.Add(k, severity);
      reference[k] += severity;
    }
  }
  ExpectMatchesReference(f, reference);
}

TEST(FeatureVectorAdversarialTest, AddAfterReadRedirties) {
  FeatureVector f;
  std::map<uint32_t, double> reference;
  for (uint32_t k : {9u, 2u, 5u}) {
    f.Add(k, 1.0);
    reference[k] += 1.0;
  }
  (void)f.entries();  // forces compaction
  for (uint32_t k : {5u, 2u, 11u, 5u}) {  // out of order again
    f.Add(k, 0.5);
    reference[k] += 0.5;
  }
  ExpectMatchesReference(f, reference);
}

TEST(FeatureVectorAdversarialTest, RandomOrdersMatchReferenceAndEachOther) {
  Rng rng(123);
  std::vector<std::pair<uint32_t, double>> adds;
  std::map<uint32_t, double> reference;
  for (int i = 0; i < 2000; ++i) {
    const uint32_t key = static_cast<uint32_t>(rng.UniformInt(uint64_t{97}));
    // Dyadic severities: exact sums in any order.
    const double severity =
        0.25 * static_cast<double>(1 + rng.UniformInt(uint64_t{16}));
    adds.emplace_back(key, severity);
    reference[key] += severity;
  }
  FeatureVector in_order;
  for (const auto& [key, severity] : adds) in_order.Add(key, severity);
  ExpectMatchesReference(in_order, reference);

  // CommonSeverity against a shuffled copy of itself must report the full
  // severity mass on both sides.
  std::vector<std::pair<uint32_t, double>> shuffled = adds;
  for (size_t i = shuffled.size() - 1; i > 0; --i) {
    std::swap(shuffled[i], shuffled[rng.UniformInt(i + 1)]);
  }
  FeatureVector reordered;
  for (const auto& [key, severity] : shuffled) reordered.Add(key, severity);
  ExpectMatchesReference(reordered, reference);
  const auto [mine, theirs] = in_order.CommonSeverity(reordered);
  EXPECT_DOUBLE_EQ(mine, in_order.total());
  EXPECT_DOUBLE_EQ(theirs, reordered.total());
}

// ---- galloping intersection ----

TEST(FeatureVectorTest, GallopingIntersectionMatchesMergeScan) {
  // Sizes skewed well past the gallop cutoff: 5 keys vs 4096.  The merge
  // scan visits common keys in ascending order; so does the gallop, so the
  // sums must be bit-identical (dyadic severities make them exact anyway).
  Rng rng(9);
  FeatureVector small;
  FeatureVector large;
  std::map<uint32_t, double> small_ref;
  std::map<uint32_t, double> large_ref;
  for (uint32_t k = 0; k < 4096; ++k) {
    const double severity =
        0.25 * static_cast<double>(1 + rng.UniformInt(uint64_t{8}));
    large.Add(k, severity);
    large_ref[k] += severity;
  }
  for (uint32_t k : {3u, 700u, 701u, 4000u, 9999u}) {  // 9999 misses
    small.Add(k, 0.75);
    small_ref[k] += 0.75;
  }
  double expect_small = 0.0;
  double expect_large = 0.0;
  for (const auto& [key, severity] : small_ref) {
    const auto it = large_ref.find(key);
    if (it == large_ref.end()) continue;
    expect_small += severity;
    expect_large += it->second;
  }
  const auto [mine, theirs] = small.CommonSeverity(large);
  EXPECT_DOUBLE_EQ(mine, expect_small);
  EXPECT_DOUBLE_EQ(theirs, expect_large);
  // Symmetric call swaps the roles (and which side gallops).
  const auto [mine2, theirs2] = large.CommonSeverity(small);
  EXPECT_DOUBLE_EQ(mine2, expect_large);
  EXPECT_DOUBLE_EQ(theirs2, expect_small);
}

TEST(FeatureVectorTest, GallopingHandlesAllLargeKeysBelowSmall) {
  FeatureVector small;
  small.Add(100000, 1.0);
  FeatureVector large;
  for (uint32_t k = 0; k < 256; ++k) large.Add(k, 1.0);
  const auto [mine, theirs] = small.CommonSeverity(large);
  EXPECT_DOUBLE_EQ(mine, 0.0);
  EXPECT_DOUBLE_EQ(theirs, 0.0);
}

TEST(AtypicalClusterTest, ByteSizeHeaderCountsChildLinks) {
  // The header must account for every metadata field — notably the
  // left_child/right_child links the old hardcoded 48 omitted.
  constexpr uint64_t kExpectedHeader =
      3 * sizeof(ClusterId) + 2 * sizeof(int) + sizeof(int64_t) +
      sizeof(EventId) + sizeof(TemporalKeyMode);
  static_assert(kExpectedHeader > 48, "header must include child links");
  AtypicalCluster c;
  EXPECT_EQ(c.ByteSize(), kExpectedHeader);
  c.micro_ids = {1, 2, 3};
  EXPECT_EQ(c.ByteSize(), kExpectedHeader + 3 * sizeof(ClusterId));
  c.spatial.Add(1, 2.0);
  EXPECT_EQ(c.ByteSize(), kExpectedHeader + 3 * sizeof(ClusterId) +
                              sizeof(uint32_t) + sizeof(double));
}

TEST(FeatureVectorTest, TopAndTopEntriesMatchBruteForce) {
  Rng rng(2024);
  FeatureVector f;
  std::vector<FeatureVector::Entry> reference;
  for (uint32_t k = 0; k < 300; ++k) {
    const double severity =
        0.25 * static_cast<double>(1 + rng.UniformInt(uint64_t{40}));
    f.Add(k, severity);
    reference.push_back({k, severity});
  }
  // Brute-force Top: first entry with the maximum severity.
  FeatureVector::Entry best = reference[0];
  for (const auto& e : reference) {
    if (e.severity > best.severity) best = e;
  }
  EXPECT_EQ(f.Top().key, best.key);
  EXPECT_DOUBLE_EQ(f.Top().severity, best.severity);

  std::sort(reference.begin(), reference.end(),
            [](const FeatureVector::Entry& a, const FeatureVector::Entry& b) {
              if (a.severity != b.severity) return a.severity > b.severity;
              return a.key < b.key;
            });
  for (size_t k : {size_t{0}, size_t{1}, size_t{7}, size_t{300}, size_t{999}}) {
    const auto top = f.TopEntries(k);
    const size_t expect_n = std::min(k, reference.size());
    ASSERT_EQ(top.size(), expect_n) << "k=" << k;
    for (size_t i = 0; i < expect_n; ++i) {
      EXPECT_EQ(top[i].key, reference[i].key) << "k=" << k << " i=" << i;
      EXPECT_DOUBLE_EQ(top[i].severity, reference[i].severity);
    }
  }
}

}  // namespace
}  // namespace atypical
