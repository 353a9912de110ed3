#include "ext/corroboration_filter.h"

#include <gtest/gtest.h>

#include "gen/workload.h"
#include "retrieval_reference.h"
#include "util/random.h"

namespace atypical {
namespace ext {
namespace {

class CorroborationTest : public ::testing::Test {
 protected:
  CorroborationTest()
      : workload_(MakeWorkload(WorkloadScale::kTiny, 31)), grid_(15) {}

  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
};

TEST_F(CorroborationTest, IsolatedRecordDropped) {
  // One lone record has zero corroborators.
  const std::vector<AtypicalRecord> records = {
      {0, grid_.MakeWindow(0, 40), 5.0f, kNoEvent}};
  CorroborationStats stats;
  const auto kept = FilterTrustworthy(records, *workload_->sensors, grid_,
                                      CorroborationParams{}, &stats);
  EXPECT_TRUE(kept.empty());
  EXPECT_EQ(stats.input_records, 1u);
  EXPECT_EQ(stats.dropped_records, 1u);
}

TEST_F(CorroborationTest, CorroboratedPairKept) {
  // Two records at the same sensor in adjacent-enough windows corroborate
  // each other (δt default 15 requires interval < 15; same window works).
  const WindowId w = grid_.MakeWindow(0, 40);
  const std::vector<AtypicalRecord> records = {
      {0, w, 5.0f, kNoEvent}, {0, w, 4.0f, kNoEvent}};
  CorroborationStats stats;
  const auto kept = FilterTrustworthy(records, *workload_->sensors, grid_,
                                      CorroborationParams{}, &stats);
  EXPECT_EQ(kept.size(), 2u);
  EXPECT_EQ(stats.kept_records, 2u);
}

TEST_F(CorroborationTest, MinCorroboratorsZeroKeepsEverything) {
  const std::vector<AtypicalRecord> records = {
      {0, grid_.MakeWindow(0, 40), 5.0f, kNoEvent}};
  CorroborationParams params;
  params.min_corroborators = 0;
  const auto kept =
      FilterTrustworthy(records, *workload_->sensors, grid_, params);
  EXPECT_EQ(kept.size(), 1u);
}

TEST_F(CorroborationTest, HigherBarDropsMore) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  CorroborationParams loose;
  loose.min_corroborators = 1;
  CorroborationParams strict;
  strict.min_corroborators = 6;
  const auto kept_loose =
      FilterTrustworthy(records, *workload_->sensors, grid_, loose);
  const auto kept_strict =
      FilterTrustworthy(records, *workload_->sensors, grid_, strict);
  EXPECT_LE(kept_strict.size(), kept_loose.size());
  EXPECT_LE(kept_loose.size(), records.size());
}

TEST_F(CorroborationTest, GeneratedEventsSurviveMostly) {
  // Real (generated) events are spatially coherent, so the default filter
  // keeps the bulk of their records.
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  CorroborationStats stats;
  FilterTrustworthy(records, *workload_->sensors, grid_,
                    CorroborationParams{}, &stats);
  EXPECT_GT(static_cast<double>(stats.kept_records) /
                static_cast<double>(stats.input_records),
            0.6);
}

TEST_F(CorroborationTest, OrderPreserved) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  const auto kept = FilterTrustworthy(records, *workload_->sensors, grid_,
                                      CorroborationParams{});
  // kept must be a subsequence of records.
  size_t pos = 0;
  for (const AtypicalRecord& k : kept) {
    while (pos < records.size() && !(records[pos] == k)) ++pos;
    ASSERT_LT(pos, records.size());
    ++pos;
  }
}

TEST_F(CorroborationTest, KeptSetMatchesReferenceCounts) {
  // Shuffled, so the per-sensor window runs cannot lean on input order.
  std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  Rng rng(9);
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.UniformInt(uint64_t{i})]);
  }
  for (const auto& [delta_d, delta_t] :
       {std::pair{1.5, 15}, std::pair{0.8, 30}, std::pair{3.0, 45}}) {
    RetrievalParams relation;
    relation.delta_d_miles = delta_d;
    relation.delta_t_minutes = delta_t;
    const std::vector<size_t> counts = reference::RelatedCounts(
        records, *workload_->sensors, grid_, relation);
    for (const int min_corroborators : {0, 1, 3, 6}) {
      CorroborationParams params;
      params.delta_d_miles = delta_d;
      params.delta_t_minutes = delta_t;
      params.min_corroborators = min_corroborators;
      std::vector<AtypicalRecord> expected;
      for (size_t i = 0; i < records.size(); ++i) {
        if (counts[i] >= static_cast<size_t>(min_corroborators)) {
          expected.push_back(records[i]);
        }
      }
      EXPECT_EQ(FilterTrustworthy(records, *workload_->sensors, grid_, params),
                expected)
          << "δd=" << delta_d << " δt=" << delta_t
          << " min=" << min_corroborators;
    }
  }
}

}  // namespace
}  // namespace ext
}  // namespace atypical
