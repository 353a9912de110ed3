#include "core/temporal_key.h"

#include <gtest/gtest.h>

namespace atypical {
namespace {

TEST(TemporalKeyTest, AbsoluteModeIsIdentity) {
  const TimeGrid grid(15);
  const WindowId w = grid.MakeWindow(3, 40);
  EXPECT_EQ(TemporalKey(w, grid, TemporalKeyMode::kAbsolute), w);
}

TEST(TemporalKeyTest, TimeOfDayModeFoldsDays) {
  const TimeGrid grid(15);
  const uint32_t key0 =
      TemporalKey(grid.MakeWindow(0, 32), grid, TemporalKeyMode::kTimeOfDay);
  const uint32_t key5 =
      TemporalKey(grid.MakeWindow(5, 32), grid, TemporalKeyMode::kTimeOfDay);
  EXPECT_EQ(key0, 32u);
  EXPECT_EQ(key0, key5);
  EXPECT_NE(key0, TemporalKey(grid.MakeWindow(0, 33), grid,
                              TemporalKeyMode::kTimeOfDay));
}

TEST(WithTemporalKeyModeTest, SameModeIsCopy) {
  const TimeGrid grid(15);
  AtypicalCluster c;
  c.id = 4;
  c.temporal.Add(100, 5.0);
  const AtypicalCluster out =
      WithTemporalKeyMode(c, grid, TemporalKeyMode::kAbsolute);
  EXPECT_EQ(out.temporal.entries(), c.temporal.entries());
  EXPECT_EQ(out.id, 4u);
}

TEST(WithTemporalKeyModeTest, RekeyAggregatesSameTimeOfDay) {
  const TimeGrid grid(15);
  AtypicalCluster c;
  c.id = 9;
  c.spatial.Add(1, 12.0);
  // Same time of day on three different days, plus one other window.
  c.temporal.Add(grid.MakeWindow(0, 32), 3.0);
  c.temporal.Add(grid.MakeWindow(1, 32), 4.0);
  c.temporal.Add(grid.MakeWindow(2, 32), 2.0);
  c.temporal.Add(grid.MakeWindow(1, 40), 3.0);

  const AtypicalCluster out =
      WithTemporalKeyMode(c, grid, TemporalKeyMode::kTimeOfDay);
  EXPECT_TRUE(out.key_mode == TemporalKeyMode::kTimeOfDay);
  EXPECT_EQ(out.temporal.size(), 2u);
  EXPECT_DOUBLE_EQ(out.temporal.Get(32), 9.0);
  EXPECT_DOUBLE_EQ(out.temporal.Get(40), 3.0);
  // Severity and SF untouched.
  EXPECT_DOUBLE_EQ(out.temporal.total(), c.temporal.total());
  EXPECT_EQ(out.spatial.entries(), c.spatial.entries());
}

TEST(WithTemporalKeyModeTest, MetadataSurvives) {
  const TimeGrid grid(15);
  AtypicalCluster c;
  c.id = 2;
  c.micro_ids = {2};
  c.left_child = 7;
  c.right_child = 8;
  c.first_day = 4;
  c.last_day = 6;
  c.num_records = 17;
  c.dominant_true_event = 99;
  c.temporal.Add(grid.MakeWindow(4, 10), 5.0);
  const AtypicalCluster out =
      WithTemporalKeyMode(c, grid, TemporalKeyMode::kTimeOfDay);
  EXPECT_EQ(out.id, 2u);
  EXPECT_EQ(out.micro_ids, c.micro_ids);
  EXPECT_EQ(out.left_child, 7u);
  EXPECT_EQ(out.right_child, 8u);
  EXPECT_EQ(out.first_day, 4);
  EXPECT_EQ(out.last_day, 6);
  EXPECT_EQ(out.num_records, 17);
  EXPECT_EQ(out.dominant_true_event, 99u);
}

TEST(WithTemporalKeyModeTest, MidnightSpanAccumulatesLikeAdd) {
  // Windows 23:45 of day 2, 00:00 and 00:15 of day 3, and 23:45 of day 3:
  // the key map is not monotone, and two absolute windows share the
  // time-of-day key 95.
  const TimeGrid grid(15);
  const int last = grid.WindowsPerDay() - 1;
  AtypicalCluster c;
  c.id = 11;
  c.spatial.Add(3, 0.1 + 0.2 + 0.7 + 0.3);
  c.temporal.Add(grid.MakeWindow(2, last), 0.1);
  c.temporal.Add(grid.MakeWindow(3, 0), 0.2);
  c.temporal.Add(grid.MakeWindow(3, 1), 0.7);
  c.temporal.Add(grid.MakeWindow(3, last), 0.3);

  FeatureVector expected;
  for (const FeatureVector::Entry& e : c.temporal.entries()) {
    expected.Add(TemporalKey(e.key, grid, TemporalKeyMode::kTimeOfDay),
                 e.severity);
  }
  const AtypicalCluster out =
      WithTemporalKeyMode(c, grid, TemporalKeyMode::kTimeOfDay);
  EXPECT_EQ(out.temporal.size(), 3u);
  EXPECT_EQ(out.temporal.Get(static_cast<uint32_t>(last)), 0.1 + 0.3);
  EXPECT_EQ(out.temporal.Get(0), 0.2);
  EXPECT_EQ(out.temporal.Get(1), 0.7);
  EXPECT_EQ(out.temporal.entries(), expected.entries());
  // Bit-equal, not merely close: the same Add sequence in the same order.
  EXPECT_EQ(out.temporal.total(), expected.total());
}

TEST(WithTemporalKeyModeTest, TimeOfDayInputIsAnEqualCopy) {
  const TimeGrid grid(15);
  AtypicalCluster c;
  c.id = 8;
  c.key_mode = TemporalKeyMode::kTimeOfDay;
  c.spatial.Add(2, 4.0);
  c.temporal.Add(40, 1.5);
  c.temporal.Add(12, 2.5);
  c.micro_ids = {3, 5};
  c.left_child = 3;
  c.right_child = 5;
  c.first_day = 1;
  c.last_day = 2;
  c.num_records = 9;
  const AtypicalCluster out =
      WithTemporalKeyMode(c, grid, TemporalKeyMode::kTimeOfDay);
  EXPECT_TRUE(out.key_mode == TemporalKeyMode::kTimeOfDay);
  EXPECT_EQ(out.id, c.id);
  EXPECT_EQ(out.spatial, c.spatial);
  EXPECT_EQ(out.temporal, c.temporal);
  EXPECT_EQ(out.temporal.total(), c.temporal.total());
  EXPECT_EQ(out.micro_ids, c.micro_ids);
  EXPECT_EQ(out.left_child, c.left_child);
  EXPECT_EQ(out.right_child, c.right_child);
  EXPECT_EQ(out.first_day, c.first_day);
  EXPECT_EQ(out.last_day, c.last_day);
  EXPECT_EQ(out.num_records, c.num_records);
}

TEST(WithTemporalKeyModeDeathTest, CannotRecoverAbsoluteKeys) {
  const TimeGrid grid(15);
  AtypicalCluster c;
  c.key_mode = TemporalKeyMode::kTimeOfDay;
  c.temporal.Add(32, 5.0);
  EXPECT_DEATH((void)WithTemporalKeyMode(c, grid, TemporalKeyMode::kAbsolute),
               "cannot recover");
}

}  // namespace
}  // namespace atypical
