#include "core/integration.h"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>
#include <numeric>
#include <optional>
#include <span>

#include "core/merge.h"
#include "obs/stats.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace atypical {
namespace {

// Input slots by spatial key (sensor), as a CSR over the inputs' key span:
// the slots holding key k are slots[offsets[k - min_key],
// offsets[k - min_key + 1]).  Filled by one counting sort.
struct SensorPostings {
  uint32_t min_key = 0;
  std::vector<uint32_t> offsets;
  std::vector<uint32_t> slots;

  explicit SensorPostings(const std::vector<AtypicalCluster>& clusters) {
    uint32_t max_key = 0;
    min_key = std::numeric_limits<uint32_t>::max();
    for (const AtypicalCluster& c : clusters) {
      const auto& entries = c.spatial.entries();
      if (entries.empty()) continue;
      min_key = std::min(min_key, entries.front().key);
      max_key = std::max(max_key, entries.back().key);
    }
    if (min_key > max_key) return;  // no input has a sensor
    const size_t span = static_cast<size_t>(max_key - min_key) + 1;
    // Count into offsets[k], prefix-sum to each key's end, then fill
    // backwards so every offsets[k] walks down to its key's start.
    offsets.assign(span + 1, 0);
    for (const AtypicalCluster& c : clusters) {
      for (const FeatureVector::Entry& e : c.spatial.entries()) {
        ++offsets[e.key - min_key];
      }
    }
    std::partial_sum(offsets.begin(), offsets.end(), offsets.begin());
    slots.resize(offsets[span]);
    for (size_t slot = clusters.size(); slot-- > 0;) {
      for (const FeatureVector::Entry& e : clusters[slot].spatial.entries()) {
        slots[--offsets[e.key - min_key]] = static_cast<uint32_t>(slot);
      }
    }
  }

  std::span<const uint32_t> Of(uint32_t key) const {
    const size_t k = key - min_key;
    return {slots.data() + offsets[k], slots.data() + offsets[k + 1]};
  }
};

bool TestBit(const std::vector<uint64_t>& bits, size_t b) {
  return ((bits[b >> 6] >> (b & 63)) & 1) != 0;
}

void SetBit(std::vector<uint64_t>& bits, size_t b) {
  bits[b >> 6] |= uint64_t{1} << (b & 63);
}

void ClearBit(std::vector<uint64_t>& bits, size_t b) {
  bits[b >> 6] &= ~(uint64_t{1} << (b & 63));
}

}  // namespace

std::vector<AtypicalCluster> IntegrateClusters(
    std::vector<AtypicalCluster> clusters, const IntegrationParams& params,
    ClusterIdGenerator* ids, IntegrationStats* stats) {
  CHECK_GT(params.delta_sim, 0.0)
      << "δsim must be positive (disjoint clusters have similarity 0)";
  CHECK(ids != nullptr);
  Stopwatch timer;

  const size_t n = clusters.size();
  CHECK_LT(n, size_t{std::numeric_limits<uint32_t>::max()});
  for (size_t i = 1; i < n; ++i) {
    CHECK(clusters[i].key_mode == clusters[0].key_mode)
        << "all inputs must share one temporal key mode";
  }

  const size_t words = (n + 63) / 64;
  std::vector<uint64_t> alive(words, ~uint64_t{0});
  if (n % 64 != 0) alive.back() = (uint64_t{1} << (n % 64)) - 1;
  size_t similarity_checks = 0;
  size_t merges = 0;
  size_t fixpoint_rounds = 0;

  // A pair sharing no sensor has SimSF == 0 exactly and SimTF <= 1, so
  // Sim <= 0.5 and it cannot exceed any δsim >= 0.5 (DESIGN §11).  There a
  // slot's candidates are the alive slots sharing a sensor with it, found
  // through the sensor postings: owner[] maps each input slot to the alive
  // slot that absorbed it (path-halving find).  Below 0.5 every alive slot
  // is a candidate.
  const bool shared_sensor_only = params.delta_sim >= 0.5;
  std::optional<SensorPostings> postings;
  std::vector<uint32_t> owner;
  if (shared_sensor_only) {
    postings.emplace(clusters);
    owner.resize(n);
    std::iota(owner.begin(), owner.end(), uint32_t{0});
  }
  auto find = [&owner](uint32_t s) {
    while (owner[s] != s) {
      owner[s] = owner[owner[s]];
      s = owner[s];
    }
    return s;
  };
  // Candidate bitmap of the slot whose turn it is, iterated ascending.
  std::vector<uint64_t> candidates(words);
  // Marks every alive slot other than `self` that holds sensor `key`.
  auto mark_holders = [&](uint32_t key, uint32_t self) {
    for (const uint32_t slot : postings->Of(key)) {
      const uint32_t root = find(slot);
      if (root != self) SetBit(candidates, root);
    }
  };

  // Greedy absorb: for each slot in ascending order, repeatedly merge the
  // lowest-numbered similar candidate into it until none qualifies, then
  // move on.  The first scan starts past i: every alive j < i ended its own
  // turn by rejecting i, neither has changed since, and the verdict is
  // symmetric bit for bit.  Every merged result re-scans from slot 0, so
  // the loop ends at the Algorithm 3 fixpoint ("until no clusters can be
  // merged") — unless a round/deadline budget trips first, in which case
  // the partition reached so far is returned as-is (valid, possibly
  // under-merged) and `converged` reports the truncation.
  bool converged = true;
  for (uint32_t i = 0; i < n && converged; ++i) {
    if (!TestBit(alive, i)) continue;
    if (shared_sensor_only) {
      std::fill(candidates.begin(), candidates.end(), 0);
      for (const FeatureVector::Entry& e : clusters[i].spatial.entries()) {
        mark_holders(e.key, i);
      }
    } else {
      candidates = alive;
      ClearBit(candidates, i);
    }
    size_t start = i + 1;
    for (bool merged_any = true; merged_any;) {
      merged_any = false;
      if ((params.max_fixpoint_rounds > 0 &&
           fixpoint_rounds >= params.max_fixpoint_rounds) ||
          (params.deadline_seconds > 0.0 &&
           timer.ElapsedSeconds() >= params.deadline_seconds)) {
        converged = false;
        break;
      }
      ++fixpoint_rounds;
      for (size_t w = start >> 6; w < words && !merged_any; ++w) {
        uint64_t bits = candidates[w];
        if (w == start >> 6) bits &= ~uint64_t{0} << (start & 63);
        for (; bits != 0; bits &= bits - 1) {
          const uint32_t j =
              static_cast<uint32_t>(w * 64 + std::countr_zero(bits));
          ++similarity_checks;
          if (Similarity(clusters[i], clusters[j], params.g) <=
              params.delta_sim) {
            continue;
          }
          if (shared_sensor_only) {
            // Holders of i's own sensors are marked already; only j's other
            // sensors can bring in new candidates.
            owner[j] = i;
            const auto& mine = clusters[i].spatial.entries();
            const auto& theirs = clusters[j].spatial.entries();
            auto it = mine.begin();
            for (const FeatureVector::Entry& e : theirs) {
              while (it != mine.end() && it->key < e.key) ++it;
              if (it == mine.end() || it->key != e.key) mark_holders(e.key, i);
            }
          }
          clusters[i] = MergeClusters(clusters[i], clusters[j], ids);
          ClearBit(alive, j);
          ClearBit(candidates, j);
          ++merges;
          merged_any = true;
          break;  // re-scan against the grown cluster
        }
      }
      start = 0;
    }
  }

  std::vector<AtypicalCluster> out;
  out.reserve(n - merges);
  for (size_t i = 0; i < n; ++i) {
    if (TestBit(alive, i)) out.push_back(std::move(clusters[i]));
  }

  IntegrationStats local;
  local.input_clusters = n;
  local.output_clusters = out.size();
  local.similarity_checks = similarity_checks;
  local.merges = merges;
  local.exact_scans = similarity_checks;
  local.fixpoint_rounds = fixpoint_rounds;
  local.converged = converged;
  local.seconds = timer.ElapsedSeconds();

  // Publish once per run; the fixpoint loop touches only locals.
  static obs::Counter* const obs_runs =
      obs::Registry()->GetCounter("integration.runs");
  static obs::Counter* const obs_inputs =
      obs::Registry()->GetCounter("integration.input_clusters");
  static obs::Counter* const obs_outputs =
      obs::Registry()->GetCounter("integration.output_clusters");
  static obs::Counter* const obs_checks =
      obs::Registry()->GetCounter("integration.similarity_checks");
  static obs::Counter* const obs_merges =
      obs::Registry()->GetCounter("integration.merges");
  static obs::Counter* const obs_rounds =
      obs::Registry()->GetCounter("integration.fixpoint_rounds");
  static obs::Histogram* const obs_seconds =
      obs::Registry()->GetHistogram("integration.seconds");
  static obs::Counter* const obs_partial =
      obs::Registry()->GetCounter("degradation.integration_partial");
  obs_runs->Add(1);
  if (!local.converged) obs_partial->Add(1);
  obs_inputs->Add(local.input_clusters);
  obs_outputs->Add(local.output_clusters);
  obs_checks->Add(local.similarity_checks);
  obs_merges->Add(local.merges);
  obs_rounds->Add(local.fixpoint_rounds);
  obs_seconds->Record(local.seconds);

  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace atypical
