// The query engine must work identically across pre-defined partition
// schemes: All ignores regions entirely; Gui's recall guarantee holds for
// any partition.
#include <gtest/gtest.h>

#include "analytics/ground_truth.h"
#include "analytics/metrics.h"
#include "analytics/report.h"
#include "index/rtree.h"

namespace atypical {
namespace {

class QueryPartitionTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = analytics::BuildContext(WorkloadScale::kTiny, 2,
                                   analytics::DefaultForestParams(), 113)
               .release();
  }
  static void TearDownTestSuite() { delete ctx_; }

  // Builds an engine over an arbitrary partition (rebuilding the guidance
  // cube on it).
  struct Stack {
    std::unique_ptr<cube::RegionDayMeasure> cube;
    std::unique_ptr<QueryEngine> engine;
  };
  static Stack MakeStack(const SpatialPartition* partition) {
    Stack stack;
    stack.cube = std::make_unique<cube::RegionDayMeasure>();
    for (const auto& month : ctx_->monthly_atypical) {
      stack.cube->MergeFrom(cube::RegionDayMeasure::FromAtypical(
          month, *partition, ctx_->time_grid()));
    }
    stack.engine = std::make_unique<QueryEngine>(
        &ctx_->network(), partition, ctx_->forest.get(), stack.cube.get(),
        analytics::DefaultEngineOptions());
    return stack;
  }

  static analytics::ExperimentContext* ctx_;
};

analytics::ExperimentContext* QueryPartitionTest::ctx_ = nullptr;

TEST_F(QueryPartitionTest, AllIsPartitionInvariant) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  const index::RTreeLeafPartition rtree(ctx_->network(), 8);
  const RegionGrid grid(ctx_->network(), 4.0);
  const QueryResult a = MakeStack(&rtree).engine->Run(query,
                                                      QueryStrategy::kAll);
  const QueryResult b = MakeStack(&grid).engine->Run(query,
                                                     QueryStrategy::kAll);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].micro_ids, b.clusters[i].micro_ids);
  }
}

TEST_F(QueryPartitionTest, GuidedKeepsSignificantMassOnEveryPartition) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(14);
  const QueryResult all =
      ctx_->MakeEngine(analytics::DefaultEngineOptions())
          .Run(query, QueryStrategy::kAll);
  const analytics::GroundTruth gt = analytics::ComputeGroundTruth(all);
  const auto severities = ctx_->forest->MicroSeverities(query.days);

  const index::RTreeLeafPartition rtree_fine(ctx_->network(), 6);
  const index::RTreeLeafPartition rtree_coarse(ctx_->network(), 20);
  const RegionGrid grid_fine(ctx_->network(), 2.0);
  const RegionGrid grid_coarse(ctx_->network(), 6.0);
  for (const SpatialPartition* partition :
       {static_cast<const SpatialPartition*>(&rtree_fine),
        static_cast<const SpatialPartition*>(&rtree_coarse),
        static_cast<const SpatialPartition*>(&grid_fine),
        static_cast<const SpatialPartition*>(&grid_coarse)}) {
    const QueryResult gui =
        MakeStack(partition).engine->Run(query, QueryStrategy::kGuided);
    const analytics::PrecisionRecall pr =
        analytics::EvaluateMass(gui, gt, severities);
    EXPECT_GT(pr.recall, 0.95) << partition->Name();
    EXPECT_LE(gui.cost.input_micro_clusters,
              all.cost.input_micro_clusters)
        << partition->Name();
  }
}

TEST_F(QueryPartitionTest, RedZoneCountBoundedByRegions) {
  const AnalyticalQuery query = ctx_->WholeAreaQuery(7);
  const index::RTreeLeafPartition partition(ctx_->network(), 8);
  const QueryResult gui =
      MakeStack(&partition).engine->Run(query, QueryStrategy::kGuided);
  EXPECT_LE(gui.cost.red_zones, gui.cost.regions_checked);
  EXPECT_EQ(gui.cost.regions_checked,
            static_cast<size_t>(partition.num_regions()));
}

}  // namespace
}  // namespace atypical
