// Battlefield surveillance (the paper's §I and §VII mention this CPS
// domain): acoustic sensor posts along patrol corridors report atypical
// activity; the same cluster model retrieves and summarizes intrusion
// events.
//
// Everything is re-parameterized, nothing re-implemented: the "roads" are
// patrol corridors, the "hotspots" are contested chokepoints probed almost
// daily, the "incidents" are scattered one-off contacts.  The trustworthy-
// record pre-filter (ext::FilterTrustworthy) drops un-corroborated readings
// first — acoustic sensors are noisy.
#include <algorithm>
#include <cstdio>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "core/significance.h"
#include "core/temporal_key.h"
#include "ext/corroboration_filter.h"
#include "gen/congestion_process.h"
#include "gen/traffic_gen.h"
#include "util/string_util.h"

int main() {
  using namespace atypical;

  // Patrol corridors across a 10x8 mile sector, sensor posts every ~0.5 mi.
  RoadNetworkConfig corridors;
  corridors.num_highways = 5;
  corridors.area_width_miles = 10.0;
  corridors.area_height_miles = 8.0;
  corridors.seed = 77;
  const RoadNetwork sector = RoadNetwork::Generate(corridors);
  SensorNetworkConfig posts;
  posts.target_num_sensors = 80;
  const SensorNetwork network = SensorNetwork::Place(sector, posts);
  std::printf("sector: %d acoustic posts on %d patrol corridors\n",
              network.num_sensors(), network.num_highways());

  // Intrusion activity: two contested chokepoints probed regularly, some
  // diversionary activity elsewhere.  Events are short (minutes to an hour)
  // and spatially tight compared to traffic jams.
  TrafficGenConfig activity;
  activity.time_grid = TimeGrid(5);  // 5-minute reporting like PeMS
  activity.days_per_month = 14;      // a two-week operation
  activity.congestion.num_major_hotspots = 2;
  activity.congestion.num_minor_hotspots = 2;
  activity.congestion.incidents_per_day = 10.0;
  activity.congestion.incident_near_hotspot_prob = 0.3;
  activity.congestion.seed = 99;
  const TrafficGenerator generator(network, activity);
  std::vector<AtypicalRecord> contacts = generator.GenerateMonthAtypical(0);
  std::printf("%zu atypical contact reports over %d days\n", contacts.size(),
              activity.days_per_month);

  // Acoustic sensors misfire; require each report to be corroborated by at
  // least one neighbor before analysis (Tru-Alarm-style trustworthiness).
  ext::CorroborationParams trust;
  trust.delta_d_miles = 1.0;
  trust.delta_t_minutes = 10;
  trust.min_corroborators = 1;
  ext::CorroborationStats trust_stats;
  contacts = ext::FilterTrustworthy(contacts, network, activity.time_grid,
                                    trust, &trust_stats);
  std::printf("trust filter: kept %zu, dropped %zu un-corroborated reports\n",
              trust_stats.kept_records, trust_stats.dropped_records);

  // Retrieve intrusion events and integrate recurring ones.
  RetrievalParams retrieval;
  retrieval.delta_d_miles = 1.0;  // contacts cluster tighter than traffic
  retrieval.delta_t_minutes = 10;
  ClusterIdGenerator ids;
  std::vector<AtypicalCluster> events = RetrieveMicroClusters(
      contacts, network, activity.time_grid, retrieval, &ids);
  std::printf("%zu intrusion events detected\n", events.size());

  for (AtypicalCluster& c : events) {
    c = WithTemporalKeyMode(c, activity.time_grid,
                            TemporalKeyMode::kTimeOfDay);
  }
  IntegrationParams integration;
  integration.delta_sim = 0.4;  // intrusions vary more day to day
  const std::vector<AtypicalCluster> patterns =
      IntegrateClusters(std::move(events), integration, &ids);

  // Significant patterns: sustained pressure on a corridor, not one-off
  // contacts.
  SignificanceParams sig;
  sig.delta_s = 0.02;
  const double threshold = SignificanceThreshold(
      sig, DayRange{0, activity.days_per_month - 1}, network.num_sensors());
  std::vector<const AtypicalCluster*> hot;
  for (const AtypicalCluster& c : patterns) {
    if (IsSignificant(c, threshold)) hot.push_back(&c);
  }
  std::sort(hot.begin(), hot.end(),
            [](const AtypicalCluster* a, const AtypicalCluster* b) {
              return a->severity() > b->severity();
            });

  std::printf("\n%zu of %zu activity patterns are significant "
              "(threshold %.0f):\n",
              hot.size(), patterns.size(), threshold);
  for (const AtypicalCluster* c : hot) {
    const FeatureVector::Entry post = c->spatial.Top();
    const FeatureVector::Entry peak = c->temporal.Top();
    std::printf(
        "  corridor %s near post %u: %.0f sensor-minutes over %d probes, "
        "peaking around %s\n",
        sector.highway(network.sensor(post.key).highway).name.c_str(),
        post.key, c->severity(), c->num_micros(),
        ClockLabel(static_cast<int>(peak.key) *
                   activity.time_grid.window_minutes())
            .c_str());
  }
  return 0;
}
