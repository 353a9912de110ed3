// Trustworthiness pre-filter (extension).
//
// The paper assumes clean, trustworthy atypical records selected by methods
// like Tru-Alarm (Tang et al., ICDM 2010).  This module provides a simple
// corroboration-based stand-in: an atypical record is kept only if at least
// `min_corroborators` other atypical records fall within the (δd, δt)
// neighborhood — isolated one-off readings are treated as sensor noise.
// Corroborators are counted over the same `SensorNeighbors` lists Algorithm
// 1 joins through (Euclidean δd).
#ifndef ATYPICAL_EXT_CORROBORATION_FILTER_H_
#define ATYPICAL_EXT_CORROBORATION_FILTER_H_

#include <vector>

#include "cps/record.h"
#include "cps/sensor_network.h"

namespace atypical {
namespace ext {

struct CorroborationParams {
  double delta_d_miles = 1.5;
  int delta_t_minutes = 15;
  int min_corroborators = 1;
};

struct CorroborationStats {
  size_t input_records = 0;
  size_t kept_records = 0;
  size_t dropped_records = 0;
};

// Returns the trustworthy subset of `records`, preserving order.
std::vector<AtypicalRecord> FilterTrustworthy(
    const std::vector<AtypicalRecord>& records, const SensorNetwork& network,
    const TimeGrid& grid, const CorroborationParams& params,
    CorroborationStats* stats = nullptr);

}  // namespace ext
}  // namespace atypical

#endif  // ATYPICAL_EXT_CORROBORATION_FILTER_H_
