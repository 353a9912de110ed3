// Shared fixtures for the serving-layer tests: build a ServingForest from an
// ExperimentContext, and assert the serving contract's bit-identity — two
// QueryResults equal in every answer-bearing field, ids included (timings
// are wall-clock and excluded by design; see DESIGN §16).
#ifndef ATYPICAL_TESTS_SERVE_TEST_UTIL_H_
#define ATYPICAL_TESTS_SERVE_TEST_UTIL_H_

#include <gtest/gtest.h>

#include <memory>

#include "analytics/report.h"
#include "core/query.h"
#include "serve/snapshot.h"

namespace atypical {
namespace serve {

// Deep answer equality (no tolerance): clusters with ids, features,
// lineage; threshold; completeness; the deterministic cost fields.  Returns
// false on the first difference so concurrent callers (the pounding test)
// can count failures without gtest assertions in the hot loop.
inline bool BitIdentical(const QueryResult& a, const QueryResult& b) {
  if (a.threshold != b.threshold) return false;
  if (a.num_sensors_in_w != b.num_sensors_in_w) return false;
  if (a.clusters.size() != b.clusters.size()) return false;
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    const AtypicalCluster& x = a.clusters[i];
    const AtypicalCluster& y = b.clusters[i];
    if (x.id != y.id || x.left_child != y.left_child ||
        x.right_child != y.right_child || x.first_day != y.first_day ||
        x.last_day != y.last_day || x.num_records != y.num_records ||
        x.key_mode != y.key_mode || x.micro_ids != y.micro_ids ||
        !(x.spatial == y.spatial) || !(x.temporal == y.temporal)) {
      return false;
    }
  }
  const DataCompleteness& ca = a.completeness;
  const DataCompleteness& cb = b.completeness;
  if (ca.days_in_range != cb.days_in_range ||
      ca.days_with_data != cb.days_with_data ||
      ca.days_degraded != cb.days_degraded ||
      ca.records_lost != cb.records_lost ||
      ca.records_quarantined != cb.records_quarantined ||
      ca.integration_converged != cb.integration_converged) {
    return false;
  }
  return a.cost.input_micro_clusters == b.cost.input_micro_clusters &&
         a.cost.micro_clusters_in_range == b.cost.micro_clusters_in_range &&
         a.cost.red_zones == b.cost.red_zones &&
         a.cost.regions_checked == b.cost.regions_checked;
}

inline void ExpectBitIdentical(const QueryResult& a, const QueryResult& b) {
  EXPECT_TRUE(BitIdentical(a, b));
  // Re-check the headline fields with individual assertions so a failure
  // names what diverged.
  EXPECT_DOUBLE_EQ(a.threshold, b.threshold);
  ASSERT_EQ(a.clusters.size(), b.clusters.size());
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    EXPECT_EQ(a.clusters[i].id, b.clusters[i].id) << "cluster " << i;
    EXPECT_EQ(a.clusters[i].micro_ids, b.clusters[i].micro_ids)
        << "cluster " << i;
  }
}

// A ServingForest over `ctx`'s network/regions/grid with the context's MC
// cube staged; call StageMonth + PublishSnapshot to make data visible.
inline std::unique_ptr<ServingForest> MakeServing(
    const analytics::ExperimentContext& ctx, const QueryEngineOptions& options) {
  auto serving = std::make_unique<ServingForest>(
      &ctx.network(), &ctx.regions(), ctx.time_grid(), ctx.forest_params,
      options);
  serving->staging_cube()->MergeFrom(ctx.measure);
  return serving;
}

// Adds one generated month's atypical records to the staging forest
// (not visible until the next PublishSnapshot()).
inline void StageMonth(const analytics::ExperimentContext& ctx, int month,
                       ServingForest* serving) {
  serving->staging_forest()->AddRecords(ctx.monthly_atypical[month]);
}

}  // namespace serve
}  // namespace atypical

#endif  // ATYPICAL_TESTS_SERVE_TEST_UTIL_H_
