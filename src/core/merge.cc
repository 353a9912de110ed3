#include "core/merge.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <optional>
#include <utility>

#include "util/logging.h"

namespace atypical {

void AbsorbCluster(AtypicalCluster* a, const AtypicalCluster& b,
                   ClusterIdGenerator* ids, MergeScratch* scratch) {
  CHECK(a->key_mode == b.key_mode)
      << "merging clusters with different temporal key modes";
  CHECK(ids != nullptr);
  DCHECK(std::is_sorted(a->micro_ids.begin(), a->micro_ids.end()));
  DCHECK(std::is_sorted(b.micro_ids.begin(), b.micro_ids.end()));

  const double a_severity = a->severity();
  const double b_severity = b.severity();
#if ATYPICAL_DCHECK_IS_ON
  // Inputs of the debug invariants below, taken before `a` changes.
  const bool a_balanced = std::abs(a->spatial.total() - a->temporal.total()) <=
                          1e-9 * std::max(1.0, a_severity);
  // Commutativity spot-check (~1/64 merges): per-key double addition of two
  // terms is exactly commutative, so the swapped merge must be bit-identical.
  std::optional<std::pair<FeatureVector, FeatureVector>> swapped;
  if (((a->id ^ b.id) & 63) == 0) {
    swapped.emplace(FeatureVector::Merge(b.spatial, a->spatial),
                    FeatureVector::Merge(b.temporal, a->temporal));
  }
#endif

  if (b_severity > a_severity) a->dominant_true_event = b.dominant_true_event;
  a->spatial.MergeFrom(b.spatial, &scratch->spatial);
  a->temporal.MergeFrom(b.temporal, &scratch->temporal);
  scratch->micro_ids.clear();
  scratch->micro_ids.reserve(a->micro_ids.size() + b.micro_ids.size());
  std::merge(a->micro_ids.begin(), a->micro_ids.end(), b.micro_ids.begin(),
             b.micro_ids.end(), std::back_inserter(scratch->micro_ids));
  a->micro_ids.swap(scratch->micro_ids);

  a->left_child = a->id;
  a->right_child = b.id;
  a->id = ids->Next();
  a->first_day = std::min(a->first_day, b.first_day);
  a->last_day = std::max(a->last_day, b.last_day);
  a->num_records += b.num_records;

#if ATYPICAL_DCHECK_IS_ON
  // Debug invariants (Property 2/3 are what make concurrent merging safe,
  // so the debug build re-derives them on live data).  Severity mass is
  // conserved and stays non-negative, and SF/TF keep distributing the same
  // total (Def. 4's Σμ == Σν, up to FP accumulation-order error).
  const double mass = a_severity + b_severity;
  DCHECK_GE(a->spatial.total(), 0.0);
  DCHECK_GE(a->temporal.total(), 0.0);
  DCHECK_LE(std::abs(a->severity() - mass), 1e-9 * std::max(1.0, mass));
  if (a_balanced && std::abs(b.spatial.total() - b.temporal.total()) <=
                        1e-9 * std::max(1.0, b_severity)) {
    DCHECK_LE(std::abs(a->spatial.total() - a->temporal.total()),
              1e-6 * std::max(1.0, mass))
        << "merge broke the Σμ == Σν severity-distribution invariant";
  }
  if (swapped) {
    DCHECK(swapped->first == a->spatial)
        << "spatial feature merge is not commutative";
    DCHECK(swapped->second == a->temporal)
        << "temporal feature merge is not commutative";
  }
#endif
}

AtypicalCluster MergeClusters(const AtypicalCluster& a,
                              const AtypicalCluster& b,
                              ClusterIdGenerator* ids) {
  AtypicalCluster out = a;
  MergeScratch scratch;
  AbsorbCluster(&out, b, ids, &scratch);
  return out;
}

}  // namespace atypical
