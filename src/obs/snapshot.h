// StatsSnapshot: a point-in-time copy of a StatsRegistry, renderable as an
// aligned text report or as JSON (schema: scripts/stats_schema.json,
// validated in CI by scripts/check_stats_schema.py).
#ifndef ATYPICAL_OBS_SNAPSHOT_H_
#define ATYPICAL_OBS_SNAPSHOT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace atypical {
namespace obs {

// Bumped whenever the JSON shape changes incompatibly.
inline constexpr int kStatsSchemaVersion = 1;

struct StatsSnapshot {
  struct HistogramData {
    struct Bucket {
      double upper_bound = 0.0;  // +inf for the overflow bucket
      uint64_t count = 0;
    };
    std::string name;
    uint64_t count = 0;
    double sum = 0.0;
    double max = 0.0;
    double p50 = 0.0;
    double p90 = 0.0;
    double p99 = 0.0;
    std::vector<Bucket> buckets;  // only buckets with samples, ascending
  };

  // All sorted by name.
  std::vector<std::pair<std::string, uint64_t>> counters;
  std::vector<std::pair<std::string, int64_t>> gauges;
  std::vector<HistogramData> histograms;

  bool empty() const {
    return counters.empty() && gauges.empty() && histograms.empty();
  }

  // Value of a counter by name, 0 when absent (test/reporting convenience).
  uint64_t CounterValue(const std::string& name) const;

  // Aligned human-readable report.
  std::string ToText() const;
  // Deterministic single-object JSON document (trailing newline included).
  std::string ToJson() const;
};

}  // namespace obs
}  // namespace atypical

#endif  // ATYPICAL_OBS_SNAPSHOT_H_
