// Order-sensitive digest of a block of clusters, for tests that check a
// block stays unchanged: epoch sharing, and readers of served levels.
#ifndef ATYPICAL_TESTS_CLUSTER_DIGEST_H_
#define ATYPICAL_TESTS_CLUSTER_DIGEST_H_

#include <bit>
#include <cstdint>
#include <vector>

#include "core/cluster.h"

namespace atypical {

// Folds ids, lineage, record counts and every feature entry's key and
// severity bits.
inline uint64_t Digest(const std::vector<AtypicalCluster>& clusters) {
  uint64_t h = 1469598103934665603ULL;
  auto fold = [&h](uint64_t v) { h = (h ^ v) * 1099511628211ULL; };
  for (const AtypicalCluster& c : clusters) {
    fold(c.id);
    for (ClusterId micro : c.micro_ids) fold(micro);
    fold(static_cast<uint64_t>(c.num_records));
    for (const FeatureVector* f : {&c.spatial, &c.temporal}) {
      for (const FeatureVector::Entry& e : f->entries()) {
        fold(e.key);
        fold(std::bit_cast<uint64_t>(e.severity));
      }
    }
  }
  return h;
}

}  // namespace atypical

#endif  // ATYPICAL_TESTS_CLUSTER_DIGEST_H_
