// Algorithm 1: atypical events are the maximal connected components of the
// direct-atypical-related relation (Defs. 1–3), summarized per Def. 4.
#include "core/event_retrieval.h"

#include <set>

#include <gtest/gtest.h>

#include "gen/workload.h"
#include "retrieval_reference.h"
#include "util/random.h"

namespace atypical {
namespace {

class EventRetrievalTest : public ::testing::Test {
 protected:
  EventRetrievalTest()
      : workload_(MakeWorkload(WorkloadScale::kTiny, 13)), grid_(15) {
    params_.delta_d_miles = 1.5;
    params_.delta_t_minutes = 15;
  }

  const SensorNetwork& network() { return *workload_->sensors; }

  // Two sensors adjacent on the same highway (within δd) and one far away.
  void PickSensors(SensorId* a, SensorId* b, SensorId* far) {
    for (int h = 0; h < network().num_highways(); ++h) {
      const auto& line = network().SensorsOnHighway(h);
      for (size_t i = 0; i + 1 < line.size(); ++i) {
        if (DistanceMiles(network().location(line[i]),
                          network().location(line[i + 1])) <
            params_.delta_d_miles) {
          *a = line[i];
          *b = line[i + 1];
          // Find a sensor far from both.
          for (const Sensor& s : network().sensors()) {
            if (DistanceMiles(s.location, network().location(*a)) > 5.0 &&
                DistanceMiles(s.location, network().location(*b)) > 5.0) {
              *far = s.id;
              return;
            }
          }
        }
      }
    }
    FAIL() << "network lacks suitable sensors";
  }

  std::unique_ptr<Workload> workload_;
  TimeGrid grid_;
  RetrievalParams params_;
  ClusterIdGenerator ids_{1};
};

TEST_F(EventRetrievalTest, EmptyInputYieldsNoEvents) {
  const std::vector<AtypicalRecord> none;
  RetrievalStats stats;
  const auto events = RetrieveEvents(none, network(), grid_, params_, &stats);
  EXPECT_TRUE(events.empty());
  EXPECT_EQ(stats.num_events, 0u);
}

TEST_F(EventRetrievalTest, NearbyRecordsFormOneEvent) {
  SensorId a, b, far;
  PickSensors(&a, &b, &far);
  const std::vector<AtypicalRecord> records = {
      {a, grid_.MakeWindow(0, 32), 5.0f, kNoEvent},
      {b, grid_.MakeWindow(0, 32), 5.0f, kNoEvent},
  };
  const auto events = RetrieveEvents(records, network(), grid_, params_);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0], (std::vector<size_t>{0, 1}));
}

TEST_F(EventRetrievalTest, DistantRecordsStaySeparate) {
  SensorId a, b, far;
  PickSensors(&a, &b, &far);
  const std::vector<AtypicalRecord> records = {
      {a, grid_.MakeWindow(0, 32), 5.0f, kNoEvent},
      {far, grid_.MakeWindow(0, 32), 5.0f, kNoEvent},
  };
  EXPECT_EQ(RetrieveEvents(records, network(), grid_, params_).size(), 2u);
}

TEST_F(EventRetrievalTest, TemporalGapSplitsEvents) {
  SensorId a, b, far;
  PickSensors(&a, &b, &far);
  // Same sensor, windows 2 apart (30 min >= δt 15) -> two events.
  const std::vector<AtypicalRecord> records = {
      {a, grid_.MakeWindow(0, 10), 5.0f, kNoEvent},
      {a, grid_.MakeWindow(0, 12), 5.0f, kNoEvent},
  };
  EXPECT_EQ(RetrieveEvents(records, network(), grid_, params_).size(), 2u);
}

TEST_F(EventRetrievalTest, AdjacentWindowsChain) {
  SensorId a, b, far;
  PickSensors(&a, &b, &far);
  // Windows skipping one slot have gap 15 < δt=20 (directly related), but
  // windows skipping three slots have gap 45-15=30 (not directly related) —
  // the chain through the middle record connects them (Def. 2).
  RetrievalParams params = params_;
  params.delta_t_minutes = 20;
  const std::vector<AtypicalRecord> records = {
      {a, grid_.MakeWindow(0, 10), 5.0f, kNoEvent},
      {a, grid_.MakeWindow(0, 12), 5.0f, kNoEvent},
      {a, grid_.MakeWindow(0, 14), 5.0f, kNoEvent},
  };
  const auto events = RetrieveEvents(records, network(), grid_, params);
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].size(), 3u);
}

TEST_F(EventRetrievalTest, StrictThresholdSemantics) {
  SensorId a, b, far;
  PickSensors(&a, &b, &far);
  // Adjacent windows have gap 0 < δt and must relate; windows whose gap is
  // exactly δt must NOT relate (Def. 1 uses strict <).
  const std::vector<AtypicalRecord> adjacent = {
      {a, grid_.MakeWindow(0, 10), 5.0f, kNoEvent},
      {a, grid_.MakeWindow(0, 11), 5.0f, kNoEvent},
  };
  EXPECT_EQ(RetrieveEvents(adjacent, network(), grid_, params_).size(), 1u);
  const std::vector<AtypicalRecord> at_threshold = {
      {a, grid_.MakeWindow(0, 10), 5.0f, kNoEvent},
      {a, grid_.MakeWindow(0, 12), 5.0f, kNoEvent},  // gap exactly 15
  };
  EXPECT_EQ(RetrieveEvents(at_threshold, network(), grid_, params_).size(),
            2u);
}

TEST_F(EventRetrievalTest, MicroClusterAggregatesPerDef4) {
  SensorId a, b, far;
  PickSensors(&a, &b, &far);
  const WindowId w = grid_.MakeWindow(2, 32);
  const std::vector<AtypicalRecord> records = {
      {a, w, 4.0f, 11},
      {b, w, 5.0f, 11},
      {a, w + 0, 0.5f, 11},  // duplicate (sensor, window) accumulates
  };
  const std::vector<AtypicalCluster> micros =
      RetrieveMicroClusters(records, network(), grid_, params_, &ids_);
  ASSERT_EQ(micros.size(), 1u);
  const AtypicalCluster& c = micros[0];
  EXPECT_DOUBLE_EQ(c.spatial.Get(a), 4.5);
  EXPECT_DOUBLE_EQ(c.spatial.Get(b), 5.0);
  EXPECT_DOUBLE_EQ(c.temporal.Get(w), 9.5);
  EXPECT_DOUBLE_EQ(c.severity(), 9.5);
  EXPECT_EQ(c.first_day, 2);
  EXPECT_EQ(c.last_day, 2);
  EXPECT_EQ(c.num_records, 3);
  EXPECT_EQ(c.dominant_true_event, 11u);
  EXPECT_EQ(c.micro_ids, std::vector<ClusterId>{c.id});
  EXPECT_TRUE(c.key_mode == TemporalKeyMode::kAbsolute);
}

TEST_F(EventRetrievalTest, SeverityInvariantOnGeneratedData) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  const std::vector<AtypicalCluster> micros =
      RetrieveMicroClusters(records, network(), grid_, params_, &ids_);
  ASSERT_FALSE(micros.empty());
  double cluster_total = 0.0;
  for (const AtypicalCluster& c : micros) {
    EXPECT_NEAR(c.spatial.total(), c.temporal.total(), 1e-6);
    cluster_total += c.severity();
  }
  double record_total = 0.0;
  for (const AtypicalRecord& r : records)
    record_total += static_cast<double>(r.severity_minutes);
  EXPECT_NEAR(cluster_total, record_total, 1e-3);
}

TEST_F(EventRetrievalTest, EventsPartitionTheRecords) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  const auto events = RetrieveEvents(records, network(), grid_, params_);
  std::vector<int> seen(records.size(), 0);
  for (const auto& event : events) {
    for (size_t idx : event) {
      ASSERT_LT(idx, records.size());
      ++seen[idx];
    }
  }
  for (size_t i = 0; i < records.size(); ++i) {
    EXPECT_EQ(seen[i], 1) << "record " << i;
  }
}

TEST_F(EventRetrievalTest, EventsAreMaximal) {
  // No two records in different events may be directly related (otherwise
  // the events should have merged — Def. 3 condition 2).
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  auto events = RetrieveEvents(records, network(), grid_, params_);
  // Cap the cost: check a subset of event pairs exhaustively.
  if (events.size() > 40) events.resize(40);
  for (size_t e1 = 0; e1 < events.size(); ++e1) {
    for (size_t e2 = e1 + 1; e2 < events.size(); ++e2) {
      for (size_t i : events[e1]) {
        for (size_t j : events[e2]) {
          const bool related =
              grid_.IntervalMinutes(records[i].window, records[j].window) <
                  params_.delta_t_minutes &&
              DistanceMiles(network().location(records[i].sensor),
                            network().location(records[j].sensor)) <
                  params_.delta_d_miles;
          ASSERT_FALSE(related)
              << "events " << e1 << " and " << e2 << " should have merged";
        }
      }
    }
  }
}

TEST_F(EventRetrievalTest, MatchesReferenceOnGeneratedMonth) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(1);
  for (const DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kRoadNetwork}) {
    RetrievalParams params = params_;
    params.metric = metric;
    EXPECT_EQ(RetrieveEvents(records, network(), grid_, params),
              reference::RetrieveEvents(records, network(), grid_, params))
        << DistanceMetricName(metric);
  }
}

TEST_F(EventRetrievalTest, ShuffledMultiDayInputMatchesReference) {
  // Batch input need not be window-ordered: the index lists and their order
  // depend only on the input positions.  A month spans many days.
  std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  ASSERT_GT(grid_.DayOfWindow(records.back().window),
            grid_.DayOfWindow(records.front().window) + 2);
  Rng rng(5);
  for (size_t i = records.size(); i > 1; --i) {
    std::swap(records[i - 1], records[rng.UniformInt(uint64_t{i})]);
  }
  const auto events = RetrieveEvents(records, network(), grid_, params_);
  EXPECT_EQ(events,
            reference::RetrieveEvents(records, network(), grid_, params_));
  EXPECT_GT(events.size(), 1u);
}

TEST_F(EventRetrievalTest, NeighborChecksFarBelowReferencePairs) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  RetrievalStats stats;
  size_t reference_checks = 0;
  RetrieveEvents(records, network(), grid_, params_, &stats);
  reference::RetrieveEvents(records, network(), grid_, params_,
                            &reference_checks);
  EXPECT_LT(stats.neighbor_checks, reference_checks / 10);
}

TEST_F(EventRetrievalTest, StatsArePopulated) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  RetrievalStats stats;
  const auto micros = RetrieveMicroClusters(records, network(), grid_,
                                            params_, &ids_, &stats);
  EXPECT_EQ(stats.num_events, micros.size());
  EXPECT_EQ(stats.num_records, records.size());
  EXPECT_GT(stats.neighbor_checks, 0u);
  EXPECT_GE(stats.seconds, 0.0);
}

TEST_F(EventRetrievalTest, ClusterIdsAreUnique) {
  const std::vector<AtypicalRecord> records =
      workload_->generator->GenerateMonthAtypical(0);
  const auto micros =
      RetrieveMicroClusters(records, network(), grid_, params_, &ids_);
  std::set<ClusterId> ids;
  for (const AtypicalCluster& c : micros) ids.insert(c.id);
  EXPECT_EQ(ids.size(), micros.size());
}

}  // namespace
}  // namespace atypical
