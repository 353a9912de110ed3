#include "core/temporal_key.h"

#include "util/logging.h"

namespace atypical {

uint32_t TemporalKey(WindowId window, const TimeGrid& grid,
                     TemporalKeyMode mode) {
  switch (mode) {
    case TemporalKeyMode::kAbsolute:
      return window;
    case TemporalKeyMode::kTimeOfDay:
      return static_cast<uint32_t>(grid.WindowOfDay(window));
  }
  LOG(FATAL) << "unknown TemporalKeyMode";
  return 0;
}

AtypicalCluster WithTemporalKeyMode(const AtypicalCluster& cluster,
                                    const TimeGrid& grid,
                                    TemporalKeyMode mode) {
  if (cluster.key_mode == mode) return cluster;
  CHECK(cluster.key_mode == TemporalKeyMode::kAbsolute)
      << "cannot recover absolute windows from time-of-day keys";

  // Field by field, so the absolute TF is never copied: one allocation each
  // for SF, the re-keyed TF and the micro ids.  Windows that share a time of
  // day sum in ascending absolute-window order; for a single-day cluster the
  // key map is monotone, so every Add() appends.
  AtypicalCluster out{.id = cluster.id,
                      .spatial = cluster.spatial,
                      .temporal = {},
                      .key_mode = mode,
                      .micro_ids = cluster.micro_ids,
                      .left_child = cluster.left_child,
                      .right_child = cluster.right_child,
                      .first_day = cluster.first_day,
                      .last_day = cluster.last_day,
                      .num_records = cluster.num_records,
                      .dominant_true_event = cluster.dominant_true_event};
  const std::vector<FeatureVector::Entry>& tf = cluster.temporal.entries();
  out.temporal.Reserve(tf.size());
  for (const FeatureVector::Entry& e : tf) {
    out.temporal.Add(TemporalKey(static_cast<WindowId>(e.key), grid, mode),
                     e.severity);
  }
  return out;
}

}  // namespace atypical
