#include "core/event_retrieval.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "core/streaming.h"
#include "obs/stats.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace atypical {

std::vector<std::vector<size_t>> RetrieveEvents(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params,
    RetrievalStats* stats) {
  Stopwatch timer;
  std::vector<std::vector<size_t>> events;
  EventJoiner joiner(network, grid, params,
                     [&events](const std::vector<EventJoiner::Member>& event) {
                       std::vector<size_t>& indices = events.emplace_back();
                       indices.reserve(event.size());
                       for (const EventJoiner::Member& member : event) {
                         indices.push_back(member.seq);
                       }
                     });
  // The joiner needs a window-ordered feed; seq = input index makes each
  // event's index list come out ascending.
  std::vector<size_t> order(records.size());
  std::iota(order.begin(), order.end(), size_t{0});
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return records[a].window < records[b].window;
  });
  for (const size_t i : order) joiner.Add(records[i], i);
  joiner.Flush();
  std::sort(events.begin(), events.end(),
            [](const std::vector<size_t>& a, const std::vector<size_t>& b) {
              return a.front() < b.front();
            });
  const uint64_t neighbor_checks = joiner.neighbor_checks();

  static obs::Counter* const records_in =
      obs::Registry()->GetCounter("retrieval.records_in");
  static obs::Counter* const events_out =
      obs::Registry()->GetCounter("retrieval.events_out");
  static obs::Counter* const checks =
      obs::Registry()->GetCounter("retrieval.neighbor_checks");
  static obs::Histogram* const seconds =
      obs::Registry()->GetHistogram("retrieval.seconds");
  records_in->Add(records.size());
  events_out->Add(events.size());
  checks->Add(neighbor_checks);
  seconds->Record(timer.ElapsedSeconds());

  if (stats != nullptr) {
    stats->num_events = events.size();
    stats->num_records = records.size();
    stats->neighbor_checks = neighbor_checks;
    stats->seconds = timer.ElapsedSeconds();
  }
  return events;
}

AtypicalCluster BuildMicroCluster(const std::vector<AtypicalRecord>& records,
                                  const std::vector<size_t>& event,
                                  const TimeGrid& grid,
                                  ClusterIdGenerator* ids) {
  CHECK(!event.empty());
  CHECK(ids != nullptr);
  AtypicalCluster cluster;
  cluster.id = ids->Next();
  cluster.key_mode = TemporalKeyMode::kAbsolute;
  cluster.num_records = static_cast<int64_t>(event.size());
  cluster.micro_ids = {cluster.id};

  int first_day = INT32_MAX;
  int last_day = INT32_MIN;
  // Mass per generator label, sorted by label (an event has a few).
  std::vector<std::pair<EventId, double>> label_mass;
  // Aggregate SF by sensor and TF by window (Def. 4).  Records arrive
  // window-major, so TF adds append or accumulate onto the last key, while
  // SF adds revisit the event's sensors and mostly binary-search.  Each
  // key sums its adds in record order.
  for (size_t idx : event) {
    const AtypicalRecord& r = records[idx];
    cluster.spatial.Add(r.sensor, r.severity_minutes);
    cluster.temporal.Add(r.window, r.severity_minutes);
    const int day = grid.DayOfWindow(r.window);
    first_day = std::min(first_day, day);
    last_day = std::max(last_day, day);
    if (r.true_event == kNoEvent) continue;
    auto label = std::ranges::lower_bound(label_mass, r.true_event, {},
                                          &std::pair<EventId, double>::first);
    if (label == label_mass.end() || label->first != r.true_event) {
      label = label_mass.insert(label, {r.true_event, 0.0});
    }
    label->second += static_cast<double>(r.severity_minutes);
  }
  cluster.first_day = first_day;
  cluster.last_day = last_day;

  // Strict argmax by mass; walking the labels in ascending order, a tie
  // keeps the smaller label.
  EventId dominant = kNoEvent;
  double best = 0.0;
  for (const auto& [label, mass] : label_mass) {
    if (mass > best) {
      dominant = label;
      best = mass;
    }
  }
  cluster.dominant_true_event = dominant;
  return cluster;
}

std::vector<AtypicalCluster> RetrieveMicroClusters(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params,
    ClusterIdGenerator* ids, RetrievalStats* stats) {
  Stopwatch timer;
  const std::vector<std::vector<size_t>> events =
      RetrieveEvents(records, network, grid, params, stats);
  std::vector<AtypicalCluster> clusters;
  clusters.reserve(events.size());
  for (const std::vector<size_t>& event : events) {
    clusters.push_back(BuildMicroCluster(records, event, grid, ids));
  }
  static obs::Counter* const micros_out =
      obs::Registry()->GetCounter("retrieval.micro_clusters_out");
  micros_out->Add(clusters.size());
  if (stats != nullptr) stats->seconds = timer.ElapsedSeconds();
  return clusters;
}

}  // namespace atypical
