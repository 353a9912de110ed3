#include "core/integration.h"

#include <memory>

#include "core/integration_internal.h"
#include "core/merge.h"
#include "obs/stats.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace atypical {

std::vector<AtypicalCluster> IntegrateClusters(
    std::vector<AtypicalCluster> clusters, const IntegrationParams& params,
    ClusterIdGenerator* ids, IntegrationStats* stats) {
  CHECK_GT(params.delta_sim, 0.0)
      << "δsim must be positive (disjoint clusters have similarity 0)";
  CHECK(ids != nullptr);
  Stopwatch timer;

  const size_t n = clusters.size();
  for (size_t i = 1; i < n; ++i) {
    CHECK(clusters[i].key_mode == clusters[0].key_mode)
        << "all inputs must share one temporal key mode";
  }

  std::vector<bool> alive(n, true);
  size_t similarity_checks = 0;
  size_t merges = 0;
  size_t fixpoint_rounds = 0;
  uint64_t index_compactions = 0;
  SimilarityScanStats scan_stats;

  std::unique_ptr<integration_internal::CandidateIndex> index;
  if (params.use_candidate_index) {
    index = std::make_unique<integration_internal::CandidateIndex>(n);
    for (size_t i = 0; i < n; ++i) {
      index->AddKeys(clusters[i], static_cast<uint32_t>(i));
    }
    index->SealBaseline();
  }

  // Greedy absorb: for each slot in ascending order, repeatedly merge the
  // lowest-numbered similar cluster into it until none qualifies, then move
  // on.  Every merged result re-scans all alive slots, so the loop ends at
  // the Algorithm 3 fixpoint ("until no clusters can be merged") — unless a
  // round/deadline budget trips first, in which case the partition reached
  // so far is returned as-is (valid, possibly under-merged) and `converged`
  // reports the truncation.
  bool converged = true;
  std::vector<uint32_t> candidates;
  for (size_t i = 0; i < n && converged; ++i) {
    if (!alive[i]) continue;
    bool merged_any = true;
    while (merged_any) {
      merged_any = false;
      if ((params.max_fixpoint_rounds > 0 &&
           fixpoint_rounds >= params.max_fixpoint_rounds) ||
          (params.deadline_seconds > 0.0 &&
           timer.ElapsedSeconds() >= params.deadline_seconds)) {
        converged = false;
        break;
      }
      ++fixpoint_rounds;
      if (index != nullptr) {
        index->Candidates(clusters[i], static_cast<uint32_t>(i), alive,
                          &candidates);
      } else {
        candidates.clear();
        for (size_t j = 0; j < n; ++j) {
          if (j != i && alive[j]) candidates.push_back(static_cast<uint32_t>(j));
        }
      }
      for (uint32_t j : candidates) {
        ++similarity_checks;
        if (ExceedsThreshold(clusters[i], clusters[j], params.g,
                             params.delta_sim, &scan_stats,
                             params.use_similarity_fast_path)) {
          // Grow the cluster's key set; only j's keys can be new, and the
          // postings for i's existing keys remain valid for the merged
          // cluster, so index j's keys under slot i.
          AtypicalCluster merged = MergeClusters(clusters[i], clusters[j], ids);
          clusters[i] = std::move(merged);
          alive[j] = false;
          if (index != nullptr) {
            index->AddKeys(clusters[j], static_cast<uint32_t>(i));
            if (index->MaybeCompact(alive)) ++index_compactions;
          }
          ++merges;
          merged_any = true;
          break;  // re-gather candidates for the grown cluster
        }
      }
    }
  }

  std::vector<AtypicalCluster> out;
  out.reserve(n - merges);
  for (size_t i = 0; i < n; ++i) {
    if (alive[i]) out.push_back(std::move(clusters[i]));
  }

  IntegrationStats local;
  local.input_clusters = n;
  local.output_clusters = out.size();
  local.similarity_checks = similarity_checks;
  local.merges = merges;
  local.exact_scans = scan_stats.exact_scans;
  local.pruned_scans = scan_stats.pruned_scans;
  local.index_compactions = index_compactions;
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
  static obs::Counter* const obs_exact_scans =
      obs::Registry()->GetCounter("similarity.exact_scans");
  static obs::Counter* const obs_pruned =
      obs::Registry()->GetCounter("similarity.pruned");
  static obs::Counter* const obs_compactions =
      obs::Registry()->GetCounter("integration.index_compactions");
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
  obs_exact_scans->Add(local.exact_scans);
  obs_pruned->Add(local.pruned_scans);
  obs_compactions->Add(local.index_compactions);
  obs_seconds->Record(local.seconds);

  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace atypical
