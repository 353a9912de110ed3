#include "ext/corroboration_filter.h"

#include <algorithm>

#include "util/logging.h"

namespace atypical {
namespace ext {

std::vector<AtypicalRecord> FilterTrustworthy(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const CorroborationParams& params,
    CorroborationStats* stats) {
  CHECK_GE(params.min_corroborators, 0);
  CHECK_GT(params.delta_t_minutes, 0);
  const SensorNeighbors near(network, params.delta_d_miles,
                             DistanceMetric::kEuclidean);
  // Each sensor's record windows, ascending.
  std::vector<std::vector<WindowId>> windows(network.num_sensors());
  for (const AtypicalRecord& r : records) {
    CHECK_LT(static_cast<size_t>(r.sensor), windows.size());
    windows[r.sensor].push_back(r.window);
  }
  for (std::vector<WindowId>& w : windows) std::sort(w.begin(), w.end());

  // Records at `sensor` whose window interval to `window` is < δt: a
  // contiguous run, since the interval grows with the window distance.
  const auto count_near = [&](SensorId sensor, WindowId window) {
    const std::vector<WindowId>& w = windows[sensor];
    const auto far = [&](WindowId other) {
      return grid.IntervalMinutes(other, window) >= params.delta_t_minutes;
    };
    const auto lo = std::partition_point(
        w.begin(), w.end(),
        [&](WindowId other) { return other < window && far(other); });
    const auto hi = std::partition_point(
        lo, w.end(),
        [&](WindowId other) { return other <= window || !far(other); });
    return static_cast<int64_t>(hi - lo);
  };

  std::vector<AtypicalRecord> kept;
  kept.reserve(records.size());
  for (const AtypicalRecord& r : records) {
    int64_t corroborators = count_near(r.sensor, r.window) - 1;  // not itself
    for (const SensorId neighbor : near.Of(r.sensor)) {
      corroborators += count_near(neighbor, r.window);
    }
    if (corroborators >= params.min_corroborators) kept.push_back(r);
  }

  if (stats != nullptr) {
    stats->input_records = records.size();
    stats->kept_records = kept.size();
    stats->dropped_records = records.size() - kept.size();
  }
  return kept;
}

}  // namespace ext
}  // namespace atypical
