// Drill-down navigation of the clustering tree (Fig. 10) and report
// assembly for the paper's Example 1 questions.
//
// Every merged macro-cluster records its two immediate children and the set
// of micro-cluster ids it integrates; with the forest's leaf level this is
// enough to decompose any analytical result back into its daily events.
#ifndef ATYPICAL_ANALYTICS_DRILLDOWN_H_
#define ATYPICAL_ANALYTICS_DRILLDOWN_H_

#include <string>
#include <vector>

#include "core/cluster.h"
#include "core/forest.h"
#include "cps/sensor_network.h"
#include "util/csv.h"

namespace atypical {
namespace analytics {

// One leaf of a macro-cluster: the daily micro-cluster and its share of the
// macro's severity.
struct DrilldownLeaf {
  const AtypicalCluster* micro = nullptr;
  int day = 0;
  double severity = 0.0;
  double share = 0.0;  // severity / macro severity
};

// Resolves a macro-cluster's micro ids against the forest's leaf level.
// Micros missing from the forest (e.g. out of the loaded range) are skipped.
// Leaves are ordered by day, then severity descending.
std::vector<DrilldownLeaf> ResolveLeaves(const AtypicalCluster& macro,
                                         const AtypicalForest& forest);

// Per-day severity profile of a macro-cluster (day -> summed leaf severity),
// covering [macro.first_day, macro.last_day].  Days without events are 0.
std::vector<double> DailySeverityProfile(const AtypicalCluster& macro,
                                         const AtypicalForest& forest);

// The answers to the paper's Example 1 questions for one cluster:
//   (1) where — top sensors; (2) when — onset and peak time of day;
//   (3) how serious — severity concentration.
struct ClusterReport {
  ClusterId id = 0;
  double severity = 0.0;
  int num_sensors = 0;
  int num_days_active = 0;
  std::vector<FeatureVector::Entry> top_sensors;  // (1)
  int onset_minute_of_day = 0;                    // (2) first ramp-up
  int peak_minute_of_day = 0;                     // (2) hottest window
  double peak_share = 0.0;                        // (3) peak window share
  std::string summary;                            // one-line rendering
};

// Builds the report for a time-of-day-keyed cluster: its 3 most severe
// sensors, and as onset the first time-of-day window reaching 20% of the
// peak window's severity.
ClusterReport BuildClusterReport(const AtypicalCluster& cluster,
                                 const SensorNetwork& network,
                                 const TimeGrid& grid);

// Renders reports for the `limit` most severe clusters as a Table
// ("rank, severity, sensors, days, onset, peak, hottest sensor").
Table RenderTopClusters(const std::vector<AtypicalCluster>& clusters,
                        const SensorNetwork& network, const TimeGrid& grid,
                        size_t limit);

}  // namespace analytics
}  // namespace atypical

#endif  // ATYPICAL_ANALYTICS_DRILLDOWN_H_
