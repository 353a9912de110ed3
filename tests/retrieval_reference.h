// Literal reference for Algorithm 1 (Defs. 1–3), with no index: every pair
// of records is compared directly, O(N + n²).  Tests and the Proposition 1
// ablation bench check the product path (core/streaming.h's EventJoiner)
// against it; nothing in src/ uses it.
#ifndef ATYPICAL_TESTS_RETRIEVAL_REFERENCE_H_
#define ATYPICAL_TESTS_RETRIEVAL_REFERENCE_H_

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "core/event_retrieval.h"
#include "cps/record.h"
#include "cps/sensor_network.h"

namespace atypical {
namespace reference {

// Def. 1: distance < δd and window interval < δt (both strict).
inline bool DirectlyRelated(const AtypicalRecord& a, const AtypicalRecord& b,
                            const SensorNetwork& network, const TimeGrid& grid,
                            const RetrievalParams& params) {
  return grid.IntervalMinutes(a.window, b.window) < params.delta_t_minutes &&
         network.Distance(a.sensor, b.sensor, params.metric) <
             params.delta_d_miles;
}

// Defs. 2–3: the connected components of DirectlyRelated, found by seed
// expansion with a full scan per record.  Each event's indices ascend and
// events are ordered by smallest index — the contract of RetrieveEvents.
// `checks`, if given, receives the number of record pairs compared.
inline std::vector<std::vector<size_t>> RetrieveEvents(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params,
    size_t* checks = nullptr) {
  std::vector<std::vector<size_t>> events;
  std::vector<bool> visited(records.size(), false);
  size_t pairs = 0;
  for (size_t seed = 0; seed < records.size(); ++seed) {
    if (visited[seed]) continue;
    std::vector<size_t> event;
    std::vector<size_t> frontier = {seed};
    visited[seed] = true;
    while (!frontier.empty()) {
      const size_t current = frontier.back();
      frontier.pop_back();
      event.push_back(current);
      for (size_t j = 0; j < records.size(); ++j) {
        if (j == current) continue;
        ++pairs;
        if (!visited[j] && DirectlyRelated(records[current], records[j],
                                           network, grid, params)) {
          visited[j] = true;
          frontier.push_back(j);
        }
      }
    }
    std::sort(event.begin(), event.end());
    events.push_back(std::move(event));
  }
  if (checks != nullptr) *checks = pairs;
  return events;
}

// For each record, how many *other* records are directly related to it
// (ext::FilterTrustworthy's corroborator count).
inline std::vector<size_t> RelatedCounts(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const RetrievalParams& params) {
  std::vector<size_t> counts(records.size(), 0);
  for (size_t i = 0; i < records.size(); ++i) {
    for (size_t j = 0; j < records.size(); ++j) {
      if (j != i &&
          DirectlyRelated(records[i], records[j], network, grid, params)) {
        ++counts[i];
      }
    }
  }
  return counts;
}

}  // namespace reference
}  // namespace atypical

#endif  // ATYPICAL_TESTS_RETRIEVAL_REFERENCE_H_
