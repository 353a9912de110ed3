#include "core/query.h"

#include "core/temporal_key.h"
#include "obs/stats.h"
#include "util/logging.h"
#include "util/stopwatch.h"

namespace atypical {

const char* QueryStrategyName(QueryStrategy strategy) {
  switch (strategy) {
    case QueryStrategy::kAll:
      return "All";
    case QueryStrategy::kPrune:
      return "Pru";
    case QueryStrategy::kGuided:
      return "Gui";
  }
  return "unknown";
}

QueryEngine::QueryEngine(const SensorNetwork* network,
                         const RegionGrid* regions,
                         const AtypicalForest* forest,
                         const cube::RegionDayMeasure* measure,
                         const QueryEngineOptions& options)
    : network_(network),
      regions_(regions),
      forest_(forest),
      measure_(measure),
      options_(options) {
  CHECK(network != nullptr);
  CHECK(regions != nullptr);
  CHECK(forest != nullptr);
  CHECK(measure != nullptr);
}

QueryResult QueryEngine::Run(const AnalyticalQuery& query,
                             QueryStrategy strategy) const {
  QueryScratch scratch;
  return Run(query, strategy, &scratch);
}

QueryResult QueryEngine::Run(const AnalyticalQuery& query,
                             QueryStrategy strategy,
                             QueryScratch* scratch) const {
  Stopwatch timer;
  QueryResult result;
  if (query.days.NumDays() <= 0) {
    // Empty or inverted T: the query covers no days, so the answer is the
    // default-constructed result — no clusters, zero threshold, zero cost.
    // Returning early (instead of walking a zero-length range) keeps
    // the threshold consistent with the empty evidence set.
    static obs::Counter* const empty_range =
        obs::Registry()->GetCounter("query.empty_range");
    empty_range->Add(1);
    return result;
  }
  result.num_sensors_in_w =
      network_->MarkSensorsInRect(query.area, &scratch->in_w);
  result.threshold =
      SignificanceThreshold(options_.significance, query.days,
                            result.num_sensors_in_w);

  // Every leaf micro-cluster of T is a candidate; nothing is copied yet.
  std::vector<const AtypicalCluster*>& candidates = scratch->candidates;
  candidates.clear();
  result.cost.micro_clusters_in_range =
      forest_->AppendMicrosInRange(query.days, &candidates);

  // The filters are independent and each keeps order, so their order
  // changes no answer.  The strategy's runs first: Pru's O(1) significance
  // test leaves the area scan few candidates.
  switch (strategy) {
    case QueryStrategy::kAll:
      break;
    case QueryStrategy::kPrune: {
      // Beforehand pruning: only micro-clusters that already clear the
      // query's significance bar are integrated.
      std::erase_if(candidates, [&](const AtypicalCluster* m) {
        return !IsSignificant(*m, result.threshold);
      });
      break;
    }
    case QueryStrategy::kGuided: {
      // Algorithm 4 lines 1–3: red zones from the bottom-up measure.
      const std::vector<RegionId> regions_in_w =
          regions_->RegionsInRect(query.area);
      result.cost.regions_checked = regions_in_w.size();
      const std::vector<RegionId> red = cube::ComputeRedZones(
          *measure_, regions_in_w, query.days, result.threshold);
      result.cost.red_zones = red.size();
      cube::FilterByRedZones(red, *regions_, options_.red_zone_mode,
                             &scratch->in_red, &candidates);
      break;
    }
  }
  // A cluster belongs to the query if it touches W at all; events
  // straddling the boundary keep their full features (their severity must
  // stay exact for Def. 5 to be meaningful).
  cube::FilterBySensorMask(scratch->in_w,
                           cube::RedZoneFilterMode::kKeepIntersecting,
                           &candidates);

  // Only the survivors are copied, re-keyed to time-of-day.
  result.cost.input_micro_clusters = candidates.size();
  std::vector<AtypicalCluster> inputs;
  inputs.reserve(candidates.size());
  for (const AtypicalCluster* c : candidates) {
    inputs.push_back(WithTemporalKeyMode(*c, forest_->time_grid(),
                                         TemporalKeyMode::kTimeOfDay));
  }
  // Query-local id source: results are bit-identical for the same query on
  // the same forest state regardless of prior or concurrent queries, and
  // the forest stays untouched (see kQueryMacroIdBase).
  ClusterIdGenerator result_ids(kQueryMacroIdBase);
  result.clusters = IntegrateClusters(std::move(inputs), options_.integration,
                                      &result_ids, &result.cost.integration);

  if (options_.post_check_significance) {
    // Algorithm 4 lines 5–7: remove false positives (in place, order kept).
    std::erase_if(result.clusters, [&](const AtypicalCluster& c) {
      return !IsSignificant(c, result.threshold);
    });
  }

  // Completeness annotation: fold the forest's per-day provenance over T so
  // the caller can tell a quiet day from a blind one.  Only stored days and
  // recorded provenances are walked, never every day of T.
  DataCompleteness& completeness = result.completeness;
  completeness.days_in_range = query.days.NumDays();
  completeness.integration_converged = result.cost.integration.converged;
  completeness.days_with_data = forest_->NumDaysInRange(query.days);
  for (const auto& [_, provenance] : forest_->ProvenanceInRange(query.days)) {
    if (!provenance.degraded()) continue;
    ++completeness.days_degraded;
    completeness.records_lost += provenance.records_lost;
    completeness.records_quarantined += provenance.records_quarantined;
  }

  result.cost.seconds = timer.ElapsedSeconds();

  // Publish the run's QueryCost once; the strategies above touch only the
  // result object.
  static obs::Counter* const obs_runs =
      obs::Registry()->GetCounter("query.runs");
  static obs::Counter* const obs_inputs =
      obs::Registry()->GetCounter("query.input_micro_clusters");
  static obs::Counter* const obs_in_range =
      obs::Registry()->GetCounter("query.micro_clusters_in_range");
  static obs::Counter* const obs_clusters_out =
      obs::Registry()->GetCounter("query.clusters_out");
  static obs::Histogram* const obs_seconds =
      obs::Registry()->GetHistogram("query.seconds");
  static obs::Counter* const obs_degraded =
      obs::Registry()->GetCounter("degradation.degraded_queries");
  obs_runs->Add(1);
  if (!completeness.complete()) obs_degraded->Add(1);
  obs_inputs->Add(result.cost.input_micro_clusters);
  obs_in_range->Add(result.cost.micro_clusters_in_range);
  obs_clusters_out->Add(result.clusters.size());
  obs_seconds->Record(result.cost.seconds);
  return result;
}

}  // namespace atypical
