#include "core/significance.h"

#include "util/logging.h"

namespace atypical {

double SignificanceThreshold(const SignificanceParams& params,
                             const DayRange& T, int num_sensors_in_w) {
  CHECK_GE(params.delta_s, 0.0);
  CHECK_GE(num_sensors_in_w, 0);
  return params.delta_s * static_cast<double>(T.NumDays()) * num_sensors_in_w;
}

std::vector<AtypicalCluster> FilterSignificant(
    const std::vector<AtypicalCluster>& clusters, double threshold) {
  std::vector<AtypicalCluster> out;
  for (const AtypicalCluster& c : clusters) {
    if (IsSignificant(c, threshold)) out.push_back(c);
  }
  return out;
}

}  // namespace atypical
