// Analytical query processing: All / Pru / Gui semantics on a small
// end-to-end workload.
#include "core/query.h"

#include <bit>
#include <climits>
#include <cstdint>
#include <random>
#include <set>

#include <gtest/gtest.h>

#include "analytics/ground_truth.h"
#include "analytics/report.h"
#include "query_reference.h"

namespace atypical {
namespace {

class QueryEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = analytics::BuildContext(WorkloadScale::kTiny, 3,
                                   analytics::DefaultForestParams(), 29)
               .release();
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  QueryEngine Engine(QueryEngineOptions options = {}) {
    options.integration = ctx_->forest_params.integration;
    return ctx_->MakeEngine(options);
  }

  static analytics::ExperimentContext* ctx_;
};

analytics::ExperimentContext* QueryEngineTest::ctx_ = nullptr;

TEST_F(QueryEngineTest, StrategyNames) {
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kAll), "All");
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kPrune), "Pru");
  EXPECT_STREQ(QueryStrategyName(QueryStrategy::kGuided), "Gui");
}

TEST_F(QueryEngineTest, AllIntegratesEveryMicroInRange) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  const QueryResult result = Engine().Run(query, QueryStrategy::kAll);
  EXPECT_EQ(result.cost.input_micro_clusters,
            result.cost.micro_clusters_in_range);
  EXPECT_GT(result.cost.input_micro_clusters, 0u);
  EXPECT_FALSE(result.clusters.empty());
  // The returned macros partition the in-range micros.
  std::set<ClusterId> seen;
  size_t micro_count = 0;
  for (const AtypicalCluster& c : result.clusters) {
    for (ClusterId id : c.micro_ids) {
      EXPECT_TRUE(seen.insert(id).second);
      ++micro_count;
    }
  }
  EXPECT_EQ(micro_count, result.cost.input_micro_clusters);
}

TEST_F(QueryEngineTest, ThresholdMatchesFormula) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  const QueryResult result = Engine().Run(query, QueryStrategy::kAll);
  EXPECT_EQ(result.num_sensors_in_w, ctx_->network().num_sensors());
  EXPECT_DOUBLE_EQ(result.threshold,
                   0.05 * 14 * result.num_sensors_in_w);
}

TEST_F(QueryEngineTest, PruneOnlyIntegratesSignificantMicros) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  const QueryResult all = Engine().Run(query, QueryStrategy::kAll);
  const QueryResult pru = Engine().Run(query, QueryStrategy::kPrune);
  EXPECT_LT(pru.cost.input_micro_clusters, all.cost.input_micro_clusters);
  // Every micro Pru integrated is individually significant.
  const auto severities = ctx_->forest->MicroSeverities(query.days);
  for (const AtypicalCluster& c : pru.clusters) {
    for (ClusterId id : c.micro_ids) {
      EXPECT_GT(severities.at(id), pru.threshold);
    }
  }
}

TEST_F(QueryEngineTest, GuidedPrunesButKeepsSignificantMass) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  const QueryResult all = Engine().Run(query, QueryStrategy::kAll);
  const QueryResult gui = Engine().Run(query, QueryStrategy::kGuided);
  EXPECT_LE(gui.cost.input_micro_clusters, all.cost.input_micro_clusters);
  EXPECT_GT(gui.cost.regions_checked, 0u);
  EXPECT_GT(gui.cost.red_zones, 0u);
  EXPECT_LE(gui.cost.red_zones, gui.cost.regions_checked);

  // No false negatives: every significant cluster found by All has a
  // counterpart in Gui carrying at least its significant micro set's mass.
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(all);
  const auto severities = ctx_->forest->MicroSeverities(query.days);
  std::set<ClusterId> gui_micros;
  for (const AtypicalCluster& c : gui.clusters) {
    gui_micros.insert(c.micro_ids.begin(), c.micro_ids.end());
  }
  for (const AtypicalCluster& g : gt.significant) {
    double mass = 0.0;
    double kept = 0.0;
    for (ClusterId id : g.micro_ids) {
      mass += severities.at(id);
      if (gui_micros.contains(id)) kept += severities.at(id);
    }
    EXPECT_GT(kept, 0.9 * mass) << "cluster " << g.id;
  }
}

TEST_F(QueryEngineTest, PostCheckRemovesTrivialClusters) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  QueryEngineOptions options;
  options.post_check_significance = true;
  const QueryResult checked = Engine(options).Run(query, QueryStrategy::kAll);
  for (const AtypicalCluster& c : checked.clusters) {
    EXPECT_GT(c.severity(), checked.threshold);
  }
  const QueryResult unchecked = Engine().Run(query, QueryStrategy::kAll);
  EXPECT_LE(checked.clusters.size(), unchecked.clusters.size());
  // With the post-check, Gui achieves 100% precision (§V.B).
  const QueryResult gui = Engine(options).Run(query, QueryStrategy::kGuided);
  for (const AtypicalCluster& c : gui.clusters) {
    EXPECT_GT(c.severity(), gui.threshold);
  }
}

TEST_F(QueryEngineTest, SpatialRestrictionFiltersClusters) {
  // Query only the left half of the area.
  AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  const GeoRect bounds = query.area;
  query.area = GeoRect{bounds.min_x, bounds.min_y,
                       (bounds.min_x + bounds.max_x) / 2, bounds.max_y};
  const QueryResult half = Engine().Run(query, QueryStrategy::kAll);
  const QueryResult whole =
      Engine().Run(ctx_->WholeAreaQuery(7), QueryStrategy::kAll);
  EXPECT_LT(half.num_sensors_in_w, whole.num_sensors_in_w);
  EXPECT_LE(half.cost.input_micro_clusters,
            whole.cost.input_micro_clusters);
  // Every returned cluster touches the query area.
  const std::vector<SensorId> in_w = ctx_->network().SensorsInRect(query.area);
  const std::set<SensorId> w_set(in_w.begin(), in_w.end());
  for (const AtypicalCluster& c : half.clusters) {
    bool touches = false;
    for (const auto& e : c.spatial.entries()) {
      if (w_set.contains(e.key)) {
        touches = true;
        break;
      }
    }
    EXPECT_TRUE(touches) << "cluster " << c.id;
  }
}

TEST_F(QueryEngineTest, TimeRestrictionFiltersClusters) {
  const QueryResult one_day =
      Engine().Run(ctx_->WholeAreaQuery(1), QueryStrategy::kAll);
  const QueryResult week =
      Engine().Run(ctx_->WholeAreaQuery(7), QueryStrategy::kAll);
  EXPECT_LT(one_day.cost.micro_clusters_in_range,
            week.cost.micro_clusters_in_range);
  for (const AtypicalCluster& c : one_day.clusters) {
    EXPECT_EQ(c.first_day, 0);
    EXPECT_EQ(c.last_day, 0);
  }
}

TEST_F(QueryEngineTest, EmptyRangeYieldsEmptyResult) {
  AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  query.days = DayRange{500, 510};
  const QueryResult result = Engine().Run(query, QueryStrategy::kAll);
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.cost.input_micro_clusters, 0u);
}

// A range ending at INT_MAX, or spanning every int, walks only the stored
// days: each strategy returns, All integrates exactly the stored days of T,
// and days_in_range counts every day of T.
TEST_F(QueryEngineTest, RangesToIntMaxWalkOnlyStoredDays) {
  const int stored_days = 3 * ctx_->days_per_month();
  struct Case {
    DayRange days;
    DayRange stored;
    int64_t days_in_range;
  };
  for (const Case& c : {Case{{1, INT_MAX}, {1, stored_days - 1}, INT_MAX},
                        Case{{INT_MIN, INT_MAX}, {0, stored_days - 1},
                             int64_t{1} << 32}}) {
    SCOPED_TRACE(testing::Message() << "days " << c.days.first_day << ".."
                                    << c.days.last_day);
    AnalyticalQuery query = ctx_->WholeAreaQuery(stored_days);
    AnalyticalQuery stored_query = query;
    query.days = c.days;
    stored_query.days = c.stored;
    const QueryResult expected =
        Engine().Run(stored_query, QueryStrategy::kAll);
    for (const QueryStrategy strategy :
         {QueryStrategy::kAll, QueryStrategy::kPrune, QueryStrategy::kGuided}) {
      const QueryResult result = Engine().Run(query, strategy);
      EXPECT_EQ(result.completeness.days_in_range, c.days_in_range);
      EXPECT_EQ(result.completeness.days_with_data,
                expected.completeness.days_with_data);
      EXPECT_EQ(result.cost.micro_clusters_in_range,
                expected.cost.micro_clusters_in_range);
      if (strategy != QueryStrategy::kAll) continue;
      ASSERT_EQ(result.clusters.size(), expected.clusters.size());
      for (size_t i = 0; i < result.clusters.size(); ++i) {
        EXPECT_EQ(result.clusters[i].id, expected.clusters[i].id);
        EXPECT_EQ(result.clusters[i].micro_ids, expected.clusters[i].micro_ids);
        EXPECT_TRUE(result.clusters[i].spatial == expected.clusters[i].spatial);
        EXPECT_TRUE(result.clusters[i].temporal ==
                    expected.clusters[i].temporal);
      }
    }
  }
}

// An empty or inverted day range covers no days: Run returns the
// default-constructed QueryResult (see QueryEngine::Run).
void ExpectDefaultResult(const QueryResult& result) {
  EXPECT_TRUE(result.clusters.empty());
  EXPECT_EQ(result.num_sensors_in_w, 0);
  EXPECT_DOUBLE_EQ(result.threshold, 0.0);
  EXPECT_EQ(result.cost.input_micro_clusters, 0u);
  EXPECT_EQ(result.cost.micro_clusters_in_range, 0u);
  EXPECT_EQ(result.cost.red_zones, 0u);
  EXPECT_EQ(result.cost.regions_checked, 0u);
}

TEST_F(QueryEngineTest, EmptyRangeReturnsDefaultResult) {
  AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  query.days = DayRange{};  // default {0, -1}: NumDays() == 0
  ExpectDefaultResult(Engine().Run(query, QueryStrategy::kAll));
}

TEST_F(QueryEngineTest, InvertedRangeReturnsDefaultResult) {
  AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  query.days = DayRange{9, 2};  // NumDays() < 0
  for (const QueryStrategy strategy :
       {QueryStrategy::kAll, QueryStrategy::kPrune, QueryStrategy::kGuided}) {
    ExpectDefaultResult(Engine().Run(query, strategy));
  }
}

TEST_F(QueryEngineTest, ResultsUseTimeOfDayKeys) {
  const QueryResult result =
      Engine().Run(ctx_->WholeAreaQuery(14), QueryStrategy::kAll);
  for (const AtypicalCluster& c : result.clusters) {
    EXPECT_TRUE(c.key_mode == TemporalKeyMode::kTimeOfDay);
    for (const auto& e : c.temporal.entries()) {
      EXPECT_LT(e.key, static_cast<uint32_t>(
                           ctx_->time_grid().WindowsPerDay()));
    }
  }
}

TEST_F(QueryEngineTest, CostsAreInternallyConsistent) {
  const QueryResult result =
      Engine().Run(ctx_->WholeAreaQuery(14), QueryStrategy::kGuided);
  EXPECT_EQ(result.cost.integration.input_clusters,
            result.cost.input_micro_clusters);
  EXPECT_EQ(result.cost.integration.output_clusters, result.clusters.size());
  EXPECT_GE(result.cost.seconds, result.cost.integration.seconds);
}

// Regression: the engine used to demand a mutable AtypicalForest* (it drew
// result ids from the forest's shared generator), which made it impossible
// to query a frozen snapshot.  An engine over a const forest must compile
// and answer identically to one over the mutable original — including
// result macro ids, which now come from the query-local kQueryMacroIdBase
// generator instead of shared mutable state.
TEST_F(QueryEngineTest, RunsAgainstConstForest) {
  const AtypicalForest& frozen = *ctx_->forest;  // const view, same forest
  const QueryEngineOptions options = analytics::DefaultEngineOptions();
  const QueryEngine const_engine(&ctx_->network(), &ctx_->regions(), &frozen,
                                 &ctx_->measure, options);
  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  for (const QueryStrategy strategy :
       {QueryStrategy::kAll, QueryStrategy::kPrune, QueryStrategy::kGuided}) {
    const QueryResult from_const = const_engine.Run(query, strategy);
    const QueryResult from_mutable = ctx_->MakeEngine(options).Run(query, strategy);
    ASSERT_EQ(from_const.clusters.size(), from_mutable.clusters.size());
    for (size_t i = 0; i < from_const.clusters.size(); ++i) {
      EXPECT_EQ(from_const.clusters[i].id, from_mutable.clusters[i].id);
      EXPECT_EQ(from_const.clusters[i].micro_ids,
                from_mutable.clusters[i].micro_ids);
      EXPECT_TRUE(from_const.clusters[i].spatial ==
                  from_mutable.clusters[i].spatial);
    }
  }
}

// Result ids are query-local: running other queries in between (which used
// to advance the forest's shared generator) must not change a query's ids.
TEST_F(QueryEngineTest, ResultIdsIndependentOfPriorQueries) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  const QueryResult first = Engine().Run(query, QueryStrategy::kAll);
  for (int day = 0; day < 5; ++day) {
    AnalyticalQuery other = query;
    other.days = DayRange{day, day + 3};
    Engine().Run(other, QueryStrategy::kAll);
  }
  const QueryResult second = Engine().Run(query, QueryStrategy::kAll);
  ASSERT_EQ(first.clusters.size(), second.clusters.size());
  for (size_t i = 0; i < first.clusters.size(); ++i) {
    EXPECT_EQ(first.clusters[i].id, second.clusters[i].id);
    if (first.clusters[i].num_micros() > 1) {
      EXPECT_GE(first.clusters[i].id, kQueryMacroIdBase);
    }
  }
}


// ---- prepare oracle --------------------------------------------------------

// Run() filters pointers and copies only the survivors; the reference in
// query_reference.h copies every in-range cluster first and filters copies.
// Both must give the same answer bit for bit, ids included, under every
// strategy and red-zone mode.
class PrepareOracleTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = analytics::BuildContext(WorkloadScale::kTiny, 2,
                                   analytics::DefaultForestParams(), 41)
               .release();
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  // Seeded random queries, plus a rect holding no sensor, a range past
  // the stored days and a whole-area query.
  static std::vector<AnalyticalQuery> Queries() {
    const GeoRect bounds = ctx_->network().bounds();
    const int stored_days = 2 * ctx_->days_per_month();
    std::mt19937 rng(7);
    std::uniform_real_distribution<double> unit(0.0, 1.0);
    std::vector<AnalyticalQuery> queries;
    for (int i = 0; i < 24; ++i) {
      const double x0 = bounds.min_x + unit(rng) * bounds.Width();
      const double y0 = bounds.min_y + unit(rng) * bounds.Height();
      const double w = (0.1 + 0.6 * unit(rng)) * bounds.Width();
      const double h = (0.1 + 0.6 * unit(rng)) * bounds.Height();
      const int first = static_cast<int>(rng() % stored_days);
      const int length = 1 + static_cast<int>(rng() % 14);
      queries.push_back(AnalyticalQuery{
          GeoRect{x0, y0, x0 + w, y0 + h},
          DayRange{first, first + length - 1}});
    }
    AnalyticalQuery whole = ctx_->WholeAreaQuery(stored_days);
    queries.push_back(whole);
    AnalyticalQuery nowhere = whole;
    nowhere.area = GeoRect{bounds.max_x + 10, bounds.max_y + 10,
                           bounds.max_x + 11, bounds.max_y + 11};
    queries.push_back(nowhere);
    AnalyticalQuery past = whole;
    past.days = DayRange{stored_days + 5, stored_days + 9};
    queries.push_back(past);
    return queries;
  }

  static void ExpectBitIdentical(const AtypicalCluster& a,
                                 const AtypicalCluster& b) {
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.micro_ids, b.micro_ids);
    EXPECT_EQ(a.left_child, b.left_child);
    EXPECT_EQ(a.right_child, b.right_child);
    EXPECT_TRUE(a.key_mode == b.key_mode);
    EXPECT_EQ(a.spatial.entries(), b.spatial.entries());
    EXPECT_EQ(a.temporal.entries(), b.temporal.entries());
    EXPECT_EQ(std::bit_cast<uint64_t>(a.severity()),
              std::bit_cast<uint64_t>(b.severity()));
    EXPECT_EQ(std::bit_cast<uint64_t>(a.temporal.total()),
              std::bit_cast<uint64_t>(b.temporal.total()));
    EXPECT_EQ(a.first_day, b.first_day);
    EXPECT_EQ(a.last_day, b.last_day);
    EXPECT_EQ(a.num_records, b.num_records);
    EXPECT_EQ(a.dominant_true_event, b.dominant_true_event);
  }

  static analytics::ExperimentContext* ctx_;
};

analytics::ExperimentContext* PrepareOracleTest::ctx_ = nullptr;

TEST_F(PrepareOracleTest, RunMatchesCopyThenFilterReference) {
  const std::vector<AnalyticalQuery> queries = Queries();
  // One scratch for every run: masks and buffers left by one query must
  // not leak into the next.
  QueryScratch scratch;
  size_t filtered = 0;
  size_t guided_without_red = 0;
  for (const cube::RedZoneFilterMode mode :
       {cube::RedZoneFilterMode::kKeepIntersecting,
        cube::RedZoneFilterMode::kKeepContained}) {
    QueryEngineOptions options = analytics::DefaultEngineOptions();
    options.integration = ctx_->forest_params.integration;
    options.red_zone_mode = mode;
    const QueryEngine engine = ctx_->MakeEngine(options);
    for (const QueryStrategy strategy :
         {QueryStrategy::kAll, QueryStrategy::kPrune,
          QueryStrategy::kGuided}) {
      for (size_t q = 0; q < queries.size(); ++q) {
        SCOPED_TRACE(testing::Message()
                     << "mode=" << static_cast<int>(mode) << " strategy="
                     << QueryStrategyName(strategy) << " query=" << q);
        const QueryResult got = engine.Run(queries[q], strategy, &scratch);
        const reference::QueryAnswer want = reference::RunQuery(
            ctx_->network(), ctx_->regions(), *ctx_->forest, ctx_->measure,
            options, queries[q], strategy);
        EXPECT_EQ(std::bit_cast<uint64_t>(got.threshold),
                  std::bit_cast<uint64_t>(want.threshold));
        EXPECT_EQ(got.cost.input_micro_clusters, want.input_micro_clusters);
        EXPECT_EQ(got.cost.micro_clusters_in_range,
                  want.micro_clusters_in_range);
        EXPECT_EQ(got.cost.red_zones, want.red_zones);
        EXPECT_EQ(got.cost.regions_checked, want.regions_checked);
        ASSERT_EQ(got.clusters.size(), want.clusters.size());
        for (size_t i = 0; i < got.clusters.size(); ++i) {
          ExpectBitIdentical(got.clusters[i], want.clusters[i]);
        }
        if (got.cost.input_micro_clusters < got.cost.micro_clusters_in_range) {
          ++filtered;
        }
        if (strategy == QueryStrategy::kGuided &&
            got.cost.micro_clusters_in_range > 0 && got.cost.red_zones == 0) {
          ++guided_without_red;
        }
      }
    }
  }
  // The cases are not vacuous: filters dropped clusters, and some Gui query
  // over stored data found no red zone.
  EXPECT_GT(filtered, 0u);
  EXPECT_GT(guided_without_red, 0u);
}

}  // namespace
}  // namespace atypical
