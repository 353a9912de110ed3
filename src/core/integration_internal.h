// Algorithm 3's inverted candidate index, used by IntegrateClusters.
//
// The index restricts pairwise similarity checks to cluster pairs sharing
// at least one spatial or temporal key — disjoint pairs have similarity 0
// and can never exceed δsim > 0, so pruning them keeps the result
// bit-identical to the naive quadratic scan (tested).
#ifndef ATYPICAL_CORE_INTEGRATION_INTERNAL_H_
#define ATYPICAL_CORE_INTEGRATION_INTERNAL_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <unordered_map>
#include <vector>

#include "core/cluster.h"
#include "util/hash_perturb.h"
#include "util/hot_path.h"

namespace atypical {
namespace integration_internal {

// Inverted index from feature keys to cluster slots, with lazy deletion
// (dead slots are filtered by the caller's alive[] check).  Spatial and
// temporal key spaces are disambiguated by a domain tag in the high bits.
//
// Merges re-post an absorbed cluster's keys under the winner slot (AddKeys
// in IntegrateClusters' merge block), so posting lists accumulate
// duplicates of the winner and stale entries for dead slots.  Candidates()
// filters both, but unbounded growth makes every later scan pay for all
// history — so IntegrateClusters arms a size watermark via SealBaseline()
// (trigger at 1.5× the just-built baseline: a fully collapsing run re-posts
// about one baseline's worth, so 2× would never fire within a run) and
// calls MaybeCompact() after each merge; compaction rewrites lists sorted/deduped with dead slots
// dropped and re-arms at 2× the surviving size, which is amortized O(1) per
// posting.  Results are unchanged: Candidates() already dedups via
// last_seen_ and filters alive[].
//
// Not thread-safe.
class CandidateIndex {
 public:
  explicit CandidateIndex(size_t num_slots) : last_seen_(num_slots, 0) {
    PerturbedReserve(postings_, num_slots * 2);
  }

  void AddKeys(const AtypicalCluster& cluster, uint32_t slot) {
    for (const FeatureVector::Entry& e : cluster.spatial.entries()) {
      Post(SpatialKey(e.key), slot);
    }
    for (const FeatureVector::Entry& e : cluster.temporal.entries()) {
      Post(TemporalKey(e.key), slot);
    }
  }

  // Arms compaction: trigger when postings grow 50% past the current
  // (just-built, duplicate-free) size.  Called once after the build loop.
  void SealBaseline() {
    compact_threshold_ = std::max<size_t>(
        total_postings_ + total_postings_ / 2, kMinPostings);
  }

  // Compacts if the armed watermark is exceeded.  Returns true when a
  // compaction ran (IntegrateClusters counts these).
  bool MaybeCompact(const std::vector<bool>& alive) {
    if (total_postings_ <= compact_threshold_) return false;
    size_t kept = 0;
    // Each posting list is rewritten in place under its own key; no state
    // crosses entries, so visitation order cannot change the result.
    // NOLINTNEXTLINE(AL009): per-key rewrite with no cross-entry state
    for (auto it = postings_.begin(); it != postings_.end();) {
      std::vector<uint32_t>& slots = it->second;
      std::sort(slots.begin(), slots.end());
      slots.erase(std::unique(slots.begin(), slots.end()), slots.end());
      std::erase_if(slots, [&](uint32_t slot) { return !alive[slot]; });
      if (slots.empty()) {
        it = postings_.erase(it);
      } else {
        slots.shrink_to_fit();
        kept += slots.size();
        ++it;
      }
    }
    total_postings_ = kept;
    compact_threshold_ = std::max<size_t>(2 * kept, kMinPostings);
    return true;
  }

  // Collects slots sharing at least one key with `cluster`, excluding
  // `self`, sorted ascending and deduplicated.
  ATYPICAL_HOT void Candidates(const AtypicalCluster& cluster, uint32_t self,
                               const std::vector<bool>& alive,
                               std::vector<uint32_t>* out) {
    out->clear();
    ++scan_id_;
    auto visit = [&](uint64_t key) {
      const auto it = postings_.find(key);
      if (it == postings_.end()) return;
      for (uint32_t slot : it->second) {
        if (slot == self || !alive[slot]) continue;
        if (last_seen_[slot] == scan_id_) continue;
        last_seen_[slot] = scan_id_;
        out->push_back(slot);
      }
    };
    for (const FeatureVector::Entry& e : cluster.spatial.entries()) {
      visit(SpatialKey(e.key));
    }
    for (const FeatureVector::Entry& e : cluster.temporal.entries()) {
      visit(TemporalKey(e.key));
    }
    std::sort(out->begin(), out->end());
  }

 private:
  // Below this many postings compaction is never worth the rehash walk.
  static constexpr size_t kMinPostings = 64;

  static uint64_t SpatialKey(uint32_t key) { return key; }
  static uint64_t TemporalKey(uint32_t key) {
    return (1ULL << 32) | key;
  }

  void Post(uint64_t key, uint32_t slot) {
    postings_[key].push_back(slot);
    ++total_postings_;
  }

  std::unordered_map<uint64_t, std::vector<uint32_t>> postings_;
  std::vector<uint64_t> last_seen_;
  uint64_t scan_id_ = 0;
  size_t total_postings_ = 0;
  // SIZE_MAX until SealBaseline(): an unsealed index never compacts.
  size_t compact_threshold_ = std::numeric_limits<size_t>::max();
};

}  // namespace integration_internal
}  // namespace atypical

#endif  // ATYPICAL_CORE_INTEGRATION_INTERNAL_H_
