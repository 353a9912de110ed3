#include "core/integration.h"

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
  SimilarityScanStats scan_stats;

  // Stage 0 of the fast path (DESIGN §11): a pair sharing no sensor has
  // SimSF == 0 exactly and SimTF <= 1, so Sim <= 0.5 and it cannot exceed
  // any δsim >= 0.5.  Below 0.5 every alive slot goes to ExceedsThreshold.
  const bool skip_disjoint_sensors =
      params.use_similarity_fast_path && params.delta_sim >= 0.5;

  // Greedy absorb: for each slot in ascending order, repeatedly merge the
  // lowest-numbered similar cluster into it until none qualifies, then move
  // on.  Every merged result re-scans all alive slots, so the loop ends at
  // the Algorithm 3 fixpoint ("until no clusters can be merged") — unless a
  // round/deadline budget trips first, in which case the partition reached
  // so far is returned as-is (valid, possibly under-merged) and `converged`
  // reports the truncation.
  bool converged = true;
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
      for (size_t j = 0; j < n; ++j) {
        if (j == i || !alive[j]) continue;
        ++similarity_checks;
        if (skip_disjoint_sensors &&
            clusters[i].spatial.signature().Disjoint(
                clusters[j].spatial.signature())) {
          if (RunsExactScan(clusters[i], clusters[j])) {
            ++scan_stats.pruned_scans;
          }
          continue;
        }
        if (ExceedsThreshold(clusters[i], clusters[j], params.g,
                             params.delta_sim, &scan_stats,
                             params.use_similarity_fast_path)) {
          AtypicalCluster merged = MergeClusters(clusters[i], clusters[j], ids);
          clusters[i] = std::move(merged);
          alive[j] = false;
          ++merges;
          merged_any = true;
          break;  // re-scan against the grown cluster
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
  obs_seconds->Record(local.seconds);

  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace atypical
