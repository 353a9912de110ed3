// Algorithm 2 and its algebraic properties (Properties 2 and 3).
#include "core/merge.h"

#include <vector>

#include <gtest/gtest.h>

#include "util/random.h"

namespace atypical {
namespace {

AtypicalCluster RandomCluster(Rng& rng, ClusterIdGenerator* ids,
                              uint32_t key_space = 20) {
  AtypicalCluster c;
  c.id = ids->Next();
  c.micro_ids = {c.id};
  const int n = 1 + static_cast<int>(rng.UniformInt(uint64_t{10}));
  for (int i = 0; i < n; ++i) {
    c.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
                  rng.Uniform(1.0, 20.0));
    c.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
                   rng.Uniform(1.0, 20.0));
  }
  c.first_day = static_cast<int>(rng.UniformInt(uint64_t{20}));
  c.last_day = c.first_day + static_cast<int>(rng.UniformInt(uint64_t{3}));
  c.num_records = n;
  return c;
}

bool FeaturesEqual(const AtypicalCluster& a, const AtypicalCluster& b) {
  if (a.spatial.entries().size() != b.spatial.entries().size()) return false;
  if (a.temporal.entries().size() != b.temporal.entries().size()) return false;
  for (size_t i = 0; i < a.spatial.entries().size(); ++i) {
    const auto& ea = a.spatial.entries()[i];
    const auto& eb = b.spatial.entries()[i];
    if (ea.key != eb.key || std::abs(ea.severity - eb.severity) > 1e-9) {
      return false;
    }
  }
  for (size_t i = 0; i < a.temporal.entries().size(); ++i) {
    const auto& ea = a.temporal.entries()[i];
    const auto& eb = b.temporal.entries()[i];
    if (ea.key != eb.key || std::abs(ea.severity - eb.severity) > 1e-9) {
      return false;
    }
  }
  return true;
}

TEST(MergeTest, PaperStyleExample) {
  // CA and CC from Fig. 5 (truncated): common sensors accumulate, the rest
  // carry over.
  ClusterIdGenerator ids(100);
  AtypicalCluster ca;
  ca.id = 1;
  ca.micro_ids = {1};
  ca.spatial.Add(1, 182.0);
  ca.spatial.Add(2, 97.0);
  ca.temporal.Add(32, 150.0);
  ca.temporal.Add(33, 129.0);
  AtypicalCluster cc;
  cc.id = 2;
  cc.micro_ids = {2};
  cc.spatial.Add(1, 103.0);
  cc.spatial.Add(7, 54.0);
  cc.temporal.Add(33, 80.0);
  cc.temporal.Add(34, 77.0);

  const AtypicalCluster merged = MergeClusters(ca, cc, &ids);
  EXPECT_EQ(merged.id, 100u);  // fresh id
  EXPECT_DOUBLE_EQ(merged.spatial.Get(1), 285.0);  // common sensor s1
  EXPECT_DOUBLE_EQ(merged.spatial.Get(2), 97.0);
  EXPECT_DOUBLE_EQ(merged.spatial.Get(7), 54.0);
  EXPECT_DOUBLE_EQ(merged.temporal.Get(33), 209.0);  // common window
  EXPECT_DOUBLE_EQ(merged.temporal.Get(32), 150.0);
  EXPECT_DOUBLE_EQ(merged.temporal.Get(34), 77.0);
  EXPECT_DOUBLE_EQ(merged.severity(), ca.severity() + cc.severity());
  EXPECT_EQ(merged.micro_ids, (std::vector<ClusterId>{1, 2}));
  EXPECT_EQ(merged.left_child, 1u);
  EXPECT_EQ(merged.right_child, 2u);
}

TEST(MergeTest, MetadataCombines) {
  ClusterIdGenerator ids(10);
  Rng rng(1);
  AtypicalCluster a = RandomCluster(rng, &ids);
  AtypicalCluster b = RandomCluster(rng, &ids);
  a.first_day = 3;
  a.last_day = 5;
  b.first_day = 1;
  b.last_day = 4;
  a.num_records = 11;
  b.num_records = 22;
  const AtypicalCluster m = MergeClusters(a, b, &ids);
  EXPECT_EQ(m.first_day, 1);
  EXPECT_EQ(m.last_day, 5);
  EXPECT_EQ(m.num_records, 33);
  EXPECT_EQ(m.num_micros(), 2);
}

TEST(MergeTest, CommutativeOnFeatures) {
  // Property 3 part 1: C1 merge C2 == C2 merge C1 (ids aside).
  Rng rng(42);
  ClusterIdGenerator ids(1);
  for (int trial = 0; trial < 100; ++trial) {
    const AtypicalCluster a = RandomCluster(rng, &ids);
    const AtypicalCluster b = RandomCluster(rng, &ids);
    const AtypicalCluster ab = MergeClusters(a, b, &ids);
    const AtypicalCluster ba = MergeClusters(b, a, &ids);
    EXPECT_TRUE(FeaturesEqual(ab, ba)) << "trial " << trial;
    EXPECT_EQ(ab.micro_ids, ba.micro_ids);  // sorted union
  }
}

TEST(MergeTest, AssociativeOnFeatures) {
  // Property 3 part 2: (C1 merge C2) merge C3 == C1 merge (C2 merge C3).
  Rng rng(43);
  ClusterIdGenerator ids(1);
  for (int trial = 0; trial < 100; ++trial) {
    const AtypicalCluster a = RandomCluster(rng, &ids);
    const AtypicalCluster b = RandomCluster(rng, &ids);
    const AtypicalCluster c = RandomCluster(rng, &ids);
    const AtypicalCluster left =
        MergeClusters(MergeClusters(a, b, &ids), c, &ids);
    const AtypicalCluster right =
        MergeClusters(a, MergeClusters(b, c, &ids), &ids);
    EXPECT_TRUE(FeaturesEqual(left, right)) << "trial " << trial;
    EXPECT_EQ(left.micro_ids, right.micro_ids);
  }
}

TEST(MergeTest, AlgebraicAgainstDirectAggregation) {
  // Property 2: merging n clusters in any grouping equals aggregating all
  // their underlying contributions directly.
  Rng rng(44);
  ClusterIdGenerator ids(1);
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<AtypicalCluster> parts;
    FeatureVector direct_sf;
    FeatureVector direct_tf;
    for (int i = 0; i < 6; ++i) {
      parts.push_back(RandomCluster(rng, &ids));
      for (const auto& e : parts.back().spatial.entries()) {
        direct_sf.Add(e.key, e.severity);
      }
      for (const auto& e : parts.back().temporal.entries()) {
        direct_tf.Add(e.key, e.severity);
      }
    }
    // Left fold.
    AtypicalCluster folded = parts[0];
    for (size_t i = 1; i < parts.size(); ++i) {
      folded = MergeClusters(folded, parts[i], &ids);
    }
    // Balanced tree fold.
    std::vector<AtypicalCluster> level = parts;
    while (level.size() > 1) {
      std::vector<AtypicalCluster> next;
      for (size_t i = 0; i + 1 < level.size(); i += 2) {
        next.push_back(MergeClusters(level[i], level[i + 1], &ids));
      }
      if (level.size() % 2 == 1) next.push_back(level.back());
      level = std::move(next);
    }
    for (const auto& e : direct_sf.entries()) {
      EXPECT_NEAR(folded.spatial.Get(e.key), e.severity, 1e-9);
      EXPECT_NEAR(level[0].spatial.Get(e.key), e.severity, 1e-9);
    }
    for (const auto& e : direct_tf.entries()) {
      EXPECT_NEAR(folded.temporal.Get(e.key), e.severity, 1e-9);
      EXPECT_NEAR(level[0].temporal.Get(e.key), e.severity, 1e-9);
    }
  }
}

TEST(MergeTest, SeverityInvariantPreserved) {
  Rng rng(45);
  ClusterIdGenerator ids(1);
  for (int trial = 0; trial < 50; ++trial) {
    AtypicalCluster a = RandomCluster(rng, &ids);
    AtypicalCluster b = RandomCluster(rng, &ids);
    // Make inputs satisfy Σμ == Σν by construction.
    // (RandomCluster does not guarantee it, so check relative totals only.)
    const AtypicalCluster m = MergeClusters(a, b, &ids);
    EXPECT_NEAR(m.spatial.total(), a.spatial.total() + b.spatial.total(),
                1e-9);
    EXPECT_NEAR(m.temporal.total(), a.temporal.total() + b.temporal.total(),
                1e-9);
  }
}

TEST(MergeTest, DominantEventFollowsBiggerCluster) {
  ClusterIdGenerator ids(1);
  AtypicalCluster a;
  a.id = ids.Next();
  a.spatial.Add(1, 100.0);
  a.temporal.Add(1, 100.0);
  a.dominant_true_event = 7;
  a.micro_ids = {a.id};
  AtypicalCluster b;
  b.id = ids.Next();
  b.spatial.Add(2, 1.0);
  b.temporal.Add(2, 1.0);
  b.dominant_true_event = 9;
  b.micro_ids = {b.id};
  EXPECT_EQ(MergeClusters(a, b, &ids).dominant_true_event, 7u);
  EXPECT_EQ(MergeClusters(b, a, &ids).dominant_true_event, 7u);
}

TEST(MergeTest, AbsorbWithReusedScratchMatchesFreshMerges) {
  // One MergeScratch carries the storage of earlier survivors into later
  // absorbs; what it held before must not leak into a result.
  Rng rng(47);
  ClusterIdGenerator micro_ids(1);
  std::vector<AtypicalCluster> micros;
  for (int i = 0; i < 12; ++i) micros.push_back(RandomCluster(rng, &micro_ids));
  ClusterIdGenerator absorb_ids(100);
  ClusterIdGenerator merge_ids(100);
  MergeScratch scratch;
  for (size_t first = 0; first < micros.size(); first += 4) {
    AtypicalCluster absorbed = micros[first];
    AtypicalCluster merged = micros[first];
    for (size_t k = first + 1; k < first + 4; ++k) {
      AbsorbCluster(&absorbed, micros[k], &absorb_ids, &scratch);
      merged = MergeClusters(merged, micros[k], &merge_ids);
    }
    EXPECT_EQ(absorbed.id, merged.id);
    EXPECT_EQ(absorbed.spatial, merged.spatial);
    EXPECT_EQ(absorbed.spatial.total(), merged.spatial.total());
    EXPECT_EQ(absorbed.temporal, merged.temporal);
    EXPECT_EQ(absorbed.temporal.total(), merged.temporal.total());
    EXPECT_EQ(absorbed.micro_ids, merged.micro_ids);
    EXPECT_EQ(absorbed.left_child, merged.left_child);
    EXPECT_EQ(absorbed.right_child, merged.right_child);
  }
}

TEST(MergeDeathTest, MixedKeyModesDie) {
  ClusterIdGenerator ids(1);
  Rng rng(46);
  AtypicalCluster a = RandomCluster(rng, &ids);
  AtypicalCluster b = RandomCluster(rng, &ids);
  b.key_mode = TemporalKeyMode::kTimeOfDay;
  EXPECT_DEATH((void)MergeClusters(a, b, &ids), "key modes");
}

}  // namespace
}  // namespace atypical
