// Significant clusters (Def. 5).
//
// C is significant for query Q(W, T) iff
//     severity(C) > δs · length(T) · N,       N = #sensors in W,
// with length(T) in days.
//
// The paper leaves length(T)'s unit implicit; only day units make its own
// figures mutually consistent (the atypical data is 2–5% of all sensor-time,
// so with minute units no cluster could ever reach δs = 5% of
// length(T)·N·window — yet Fig. 19 sweeps δs to 20% and still finds
// significant clusters).  See EXPERIMENTS.md for the calibration argument.
#ifndef ATYPICAL_CORE_SIGNIFICANCE_H_
#define ATYPICAL_CORE_SIGNIFICANCE_H_

#include <vector>

#include "core/cluster.h"
#include "cps/types.h"

namespace atypical {

struct SignificanceParams {
  double delta_s = 0.05;  // paper default 5%
};

// δs · T.NumDays() · N.
double SignificanceThreshold(const SignificanceParams& params,
                             const DayRange& T, int num_sensors_in_w);

inline bool IsSignificant(const AtypicalCluster& cluster, double threshold) {
  return cluster.severity() > threshold;
}

// The significant subset of `clusters` (order preserved).
std::vector<AtypicalCluster> FilterSignificant(
    const std::vector<AtypicalCluster>& clusters, double threshold);

}  // namespace atypical

#endif  // ATYPICAL_CORE_SIGNIFICANCE_H_
