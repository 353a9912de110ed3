// Cross-module invariants of the whole pipeline.
#include <set>

#include <gtest/gtest.h>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "core/temporal_key.h"
#include "gen/workload.h"
#include "core/merge.h"
#include "retrieval_reference.h"

namespace atypical {
namespace {

class PipelinePropertyTest : public ::testing::Test {
 protected:
  PipelinePropertyTest()
      : workload_(MakeWorkload(WorkloadScale::kTiny, 97)),
        grid_(workload_->gen_config.time_grid),
        records_(workload_->generator->GenerateMonthAtypical(0)) {}

  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
  std::vector<AtypicalRecord> records_;
};

TEST_F(PipelinePropertyTest, IntegrationIsIdempotent) {
  // Algorithm 3 runs to a fixpoint, so integrating its output again must
  // change nothing (no pair of outputs exceeds δsim).
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
      records_, *workload_->sensors, grid_,
      analytics::DefaultForestParams().retrieval, &ids);
  for (AtypicalCluster& c : micros) {
    c = WithTemporalKeyMode(c, grid_, TemporalKeyMode::kTimeOfDay);
  }
  const IntegrationParams params;
  const auto once = IntegrateClusters(std::move(micros), params, &ids);
  IntegrationStats stats;
  const auto twice = IntegrateClusters(once, params, &ids, &stats);
  EXPECT_EQ(stats.merges, 0u);
  EXPECT_EQ(twice.size(), once.size());
}

TEST_F(PipelinePropertyTest, SeverityConservedThroughPipeline) {
  // records -> micros -> integration never create or lose severity mass.
  double record_mass = 0.0;
  for (const AtypicalRecord& r : records_)
    record_mass += static_cast<double>(r.severity_minutes);

  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
      records_, *workload_->sensors, grid_,
      analytics::DefaultForestParams().retrieval, &ids);
  double micro_mass = 0.0;
  for (const AtypicalCluster& c : micros) micro_mass += c.severity();
  EXPECT_NEAR(micro_mass, record_mass, 1e-3);

  for (AtypicalCluster& c : micros) {
    c = WithTemporalKeyMode(c, grid_, TemporalKeyMode::kTimeOfDay);
  }
  const auto macros =
      IntegrateClusters(std::move(micros), IntegrationParams{}, &ids);
  double macro_mass = 0.0;
  for (const AtypicalCluster& c : macros) macro_mass += c.severity();
  EXPECT_NEAR(macro_mass, record_mass, 1e-3);
}

TEST_F(PipelinePropertyTest, RoadMetricConfinesEventsToOneHighway) {
  RetrievalParams params = analytics::DefaultForestParams().retrieval;
  params.metric = DistanceMetric::kRoadNetwork;
  ClusterIdGenerator ids(1);
  const auto micros = RetrieveMicroClusters(records_, *workload_->sensors,
                                            grid_, params, &ids);
  ASSERT_FALSE(micros.empty());
  for (const AtypicalCluster& c : micros) {
    std::set<HighwayId> highways;
    for (const auto& e : c.spatial.entries()) {
      highways.insert(workload_->sensors->sensor(e.key).highway);
    }
    EXPECT_EQ(highways.size(), 1u) << "cluster " << c.id;
  }
}

TEST_F(PipelinePropertyTest, RoadMetricYieldsAtLeastAsManyEvents) {
  // Road distance >= Euclidean distance, so the road relation is a subset:
  // connected components can only fragment, never merge.
  RetrievalParams euclid = analytics::DefaultForestParams().retrieval;
  RetrievalParams road = euclid;
  road.metric = DistanceMetric::kRoadNetwork;
  const auto events_euclid =
      RetrieveEvents(records_, *workload_->sensors, grid_, euclid);
  const auto events_road =
      RetrieveEvents(records_, *workload_->sensors, grid_, road);
  EXPECT_GE(events_road.size(), events_euclid.size());
}

TEST_F(PipelinePropertyTest, RoadMetricMatchesReference) {
  RetrievalParams road = analytics::DefaultForestParams().retrieval;
  road.metric = DistanceMetric::kRoadNetwork;
  EXPECT_EQ(
      RetrieveEvents(records_, *workload_->sensors, grid_, road),
      reference::RetrieveEvents(records_, *workload_->sensors, grid_, road));
}

TEST_F(PipelinePropertyTest, SensorDistanceProperties) {
  const SensorNetwork& network = *workload_->sensors;
  for (SensorId a = 0; a < 20 && a < static_cast<SensorId>(network.num_sensors());
       ++a) {
    for (SensorId b = 0;
         b < 20 && b < static_cast<SensorId>(network.num_sensors()); ++b) {
      const double euclid = network.Distance(a, b, DistanceMetric::kEuclidean);
      const double road = network.Distance(a, b, DistanceMetric::kRoadNetwork);
      // Symmetry.
      EXPECT_DOUBLE_EQ(euclid,
                       network.Distance(b, a, DistanceMetric::kEuclidean));
      EXPECT_DOUBLE_EQ(road,
                       network.Distance(b, a, DistanceMetric::kRoadNetwork));
      // Road distance dominates Euclidean (chord <= path).
      EXPECT_GE(road + 1e-9, euclid);
      if (a == b) {
        EXPECT_DOUBLE_EQ(euclid, 0.0);
        EXPECT_DOUBLE_EQ(road, 0.0);
      }
    }
  }
}

TEST_F(PipelinePropertyTest, QueriesAreDeterministic) {
  const auto ctx =
      analytics::BuildContext(WorkloadScale::kTiny, 1,
                              analytics::DefaultForestParams(), 97);
  const QueryEngine engine = ctx->MakeEngine(analytics::DefaultEngineOptions());
  const AnalyticalQuery query = ctx->WholeAreaQuery(7);
  for (const QueryStrategy strategy :
       {QueryStrategy::kAll, QueryStrategy::kPrune, QueryStrategy::kGuided}) {
    const QueryResult a = engine.Run(query, strategy);
    const QueryResult b = engine.Run(query, strategy);
    ASSERT_EQ(a.clusters.size(), b.clusters.size())
        << QueryStrategyName(strategy);
    for (size_t i = 0; i < a.clusters.size(); ++i) {
      EXPECT_EQ(a.clusters[i].micro_ids, b.clusters[i].micro_ids);
      EXPECT_DOUBLE_EQ(a.clusters[i].severity(), b.clusters[i].severity());
    }
  }
}

TEST_F(PipelinePropertyTest, RekeyingCommutesWithMerging) {
  // WithTemporalKeyMode(merge(a, b)) == merge(rekey(a), rekey(b)):
  // re-keying is a homomorphism for the algebraic features.
  ClusterIdGenerator ids(1);
  std::vector<AtypicalCluster> micros = RetrieveMicroClusters(
      records_, *workload_->sensors, grid_,
      analytics::DefaultForestParams().retrieval, &ids);
  if (micros.size() < 2) GTEST_SKIP();
  for (size_t i = 0; i + 1 < micros.size() && i < 20; i += 2) {
    ClusterIdGenerator merge_ids(1000000);
    const AtypicalCluster merged_then_rekeyed = WithTemporalKeyMode(
        MergeClusters(micros[i], micros[i + 1], &merge_ids), grid_,
        TemporalKeyMode::kTimeOfDay);
    ClusterIdGenerator merge_ids2(1000000);
    const AtypicalCluster rekeyed_then_merged = MergeClusters(
        WithTemporalKeyMode(micros[i], grid_, TemporalKeyMode::kTimeOfDay),
        WithTemporalKeyMode(micros[i + 1], grid_,
                            TemporalKeyMode::kTimeOfDay),
        &merge_ids2);
    EXPECT_EQ(merged_then_rekeyed.temporal.entries(),
              rekeyed_then_merged.temporal.entries())
        << "pair " << i;
  }
}

}  // namespace
}  // namespace atypical
