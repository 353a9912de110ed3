#include "analytics/drilldown.h"

#include <algorithm>
#include <map>

#include "util/logging.h"
#include "util/string_util.h"

namespace atypical {
namespace analytics {

namespace {
// A report names this many of the cluster's most severe sensors.
constexpr size_t kReportTopSensors = 3;
// Onset = first time-of-day window reaching this fraction of the peak.
constexpr double kOnsetFraction = 0.2;
}  // namespace

std::vector<DrilldownLeaf> ResolveLeaves(const AtypicalCluster& macro,
                                         const AtypicalForest& forest) {
  // Index the forest's leaves once per call; macro micro-id lists are small
  // relative to the forest, so look up day-by-day instead.
  std::map<ClusterId, std::pair<const AtypicalCluster*, int>> by_id;
  for (int day : forest.Days()) {
    for (const AtypicalCluster& micro : forest.MicrosOfDay(day)) {
      by_id.emplace(micro.id, std::make_pair(&micro, day));
    }
  }

  std::vector<DrilldownLeaf> leaves;
  const double total = macro.severity();
  for (ClusterId id : macro.micro_ids) {
    const auto it = by_id.find(id);
    if (it == by_id.end()) continue;
    DrilldownLeaf leaf;
    leaf.micro = it->second.first;
    leaf.day = it->second.second;
    leaf.severity = leaf.micro->severity();
    leaf.share = total > 0.0 ? leaf.severity / total : 0.0;
    leaves.push_back(leaf);
  }
  std::sort(leaves.begin(), leaves.end(),
            [](const DrilldownLeaf& a, const DrilldownLeaf& b) {
              if (a.day != b.day) return a.day < b.day;
              return a.severity > b.severity;
            });
  return leaves;
}

std::vector<double> DailySeverityProfile(const AtypicalCluster& macro,
                                         const AtypicalForest& forest) {
  const int days = macro.last_day - macro.first_day + 1;
  CHECK_GT(days, 0);
  std::vector<double> profile(days, 0.0);
  for (const DrilldownLeaf& leaf : ResolveLeaves(macro, forest)) {
    if (leaf.day >= macro.first_day && leaf.day <= macro.last_day) {
      profile[leaf.day - macro.first_day] += leaf.severity;
    }
  }
  return profile;
}

ClusterReport BuildClusterReport(const AtypicalCluster& cluster,
                                 const SensorNetwork& network,
                                 const TimeGrid& grid) {
  CHECK(cluster.key_mode == TemporalKeyMode::kTimeOfDay)
      << "reports read TF keys as times of day";
  ClusterReport report;
  report.id = cluster.id;
  report.severity = cluster.severity();
  report.num_sensors = cluster.num_sensors();
  report.num_days_active = cluster.last_day - cluster.first_day + 1;
  report.top_sensors = cluster.spatial.TopEntries(kReportTopSensors);

  if (!cluster.temporal.empty()) {
    const FeatureVector::Entry peak = cluster.temporal.Top();
    report.peak_minute_of_day =
        static_cast<int>(peak.key) * grid.window_minutes();
    report.peak_share =
        report.severity > 0.0 ? peak.severity / report.severity : 0.0;
    for (const FeatureVector::Entry& e : cluster.temporal.entries()) {
      if (e.severity >= kOnsetFraction * peak.severity) {
        report.onset_minute_of_day =
            static_cast<int>(e.key) * grid.window_minutes();
        break;
      }
    }
  }

  std::string where;
  if (!report.top_sensors.empty()) {
    const Sensor& s = network.sensor(report.top_sensors[0].key);
    where = StrPrintf("s%u@hw%u", report.top_sensors[0].key, s.highway);
  }
  report.summary = StrPrintf(
      "%.0f sensor-min over %d sensors, %d days; onset %s, peak %s at %s",
      report.severity, report.num_sensors, report.num_days_active,
      ClockLabel(report.onset_minute_of_day).c_str(),
      ClockLabel(report.peak_minute_of_day).c_str(), where.c_str());
  return report;
}

Table RenderTopClusters(const std::vector<AtypicalCluster>& clusters,
                        const SensorNetwork& network, const TimeGrid& grid,
                        size_t limit) {
  std::vector<const AtypicalCluster*> ranked;
  ranked.reserve(clusters.size());
  for (const AtypicalCluster& c : clusters) ranked.push_back(&c);
  std::sort(ranked.begin(), ranked.end(),
            [](const AtypicalCluster* a, const AtypicalCluster* b) {
              return a->severity() > b->severity();
            });
  if (ranked.size() > limit) ranked.resize(limit);

  Table table({"rank", "severity", "sensors", "days", "onset", "peak",
               "hottest sensor"});
  int rank = 0;
  for (const AtypicalCluster* c : ranked) {
    const ClusterReport report = BuildClusterReport(*c, network, grid);
    const std::string hottest =
        report.top_sensors.empty()
            ? "-"
            : StrPrintf("s%u (%.0f min)", report.top_sensors[0].key,
                        report.top_sensors[0].severity);
    table.AddRow({StrPrintf("%d", ++rank),
                  StrPrintf("%.0f", report.severity),
                  StrPrintf("%d", report.num_sensors),
                  StrPrintf("%d", report.num_days_active),
                  ClockLabel(report.onset_minute_of_day),
                  ClockLabel(report.peak_minute_of_day), hottest});
  }
  return table;
}

}  // namespace analytics
}  // namespace atypical
