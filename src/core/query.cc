#include "core/query.h"

#include <algorithm>

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
                         const SpatialPartition* regions,
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

namespace {

// Membership in the (sorted) sensors-of-W set.  Binary search over the
// caller's reused buffer keeps the hot path free of per-query hash sets.
bool TouchesArea(const AtypicalCluster& c,
                 const std::vector<SensorId>& sorted_in_w) {
  for (const FeatureVector::Entry& e : c.spatial.entries()) {
    if (std::binary_search(sorted_in_w.begin(), sorted_in_w.end(), e.key)) {
      return true;
    }
  }
  return false;
}

}  // namespace

void QueryEngine::FilterToArea(const std::vector<SensorId>& sensors_in_w,
                               std::vector<AtypicalCluster>* inputs) {
  std::erase_if(*inputs, [&](const AtypicalCluster& c) {
    return !TouchesArea(c, sensors_in_w);
  });
}

std::vector<AtypicalCluster> QueryEngine::CollectPlannedInputs(
    const AnalyticalQuery& query, const std::vector<SensorId>& sensors_in_w,
    QueryCost* cost) const {
  const DayRange& range = query.days;
  // Empty or inverted range: nothing to plan, and the cost stays zero.
  // Run() short-circuits before getting here; the guard keeps the method's
  // own contract safe for direct callers.
  if (range.NumDays() <= 0) return {};
  std::vector<bool> covered(static_cast<size_t>(range.NumDays()), false);
  auto cover = [&](int first, int last) {
    for (int day = first; day <= last; ++day) {
      covered[day - range.first_day] = true;
    }
  };
  auto all_uncovered = [&](int first, int last) {
    if (first < range.first_day || last > range.last_day) return false;
    for (int day = first; day <= last; ++day) {
      if (covered[day - range.first_day]) return false;
    }
    return true;
  };

  std::vector<AtypicalCluster> inputs;
  // Months first (largest pre-integrated units), then weeks.  A level whose
  // covered days mutated after it was built (late AddRecords batch) would
  // serve stale macros; the forest's versioning detects that, the planner
  // skips the level, and the days fall through to the leaf loop below.
  if (forest_->month_days() > 0) {
    for (int month : forest_->MaterializedMonths()) {
      const int first = month * forest_->month_days();
      const int last = first + forest_->month_days() - 1;
      if (!all_uncovered(first, last)) continue;
      if (forest_->MonthIsStale(month)) {
        ++cost->stale_materialized_skipped;
        continue;
      }
      for (const AtypicalCluster& c : forest_->MacrosOfMonth(month)) {
        inputs.push_back(c);
      }
      cover(first, last);
      cost->materialized_inputs += forest_->MacrosOfMonth(month).size();
      cost->days_from_materialized += last - first + 1;
    }
  }
  for (int week : forest_->MaterializedWeeks()) {
    const int first = week * 7;
    const int last = first + 6;
    if (!all_uncovered(first, last)) continue;
    if (forest_->WeekIsStale(week)) {
      ++cost->stale_materialized_skipped;
      continue;
    }
    for (const AtypicalCluster& c : forest_->MacrosOfWeek(week)) {
      inputs.push_back(c);
    }
    cover(first, last);
    cost->materialized_inputs += forest_->MacrosOfWeek(week).size();
    cost->days_from_materialized += 7;
  }
  // Leaf days for the remainder.
  for (int day = range.first_day; day <= range.last_day; ++day) {
    if (covered[day - range.first_day] || !forest_->HasDay(day)) continue;
    for (const AtypicalCluster& micro : forest_->MicrosOfDay(day)) {
      ++cost->micro_clusters_in_range;
      inputs.push_back(WithTemporalKeyMode(micro, forest_->time_grid(),
                                           TemporalKeyMode::kTimeOfDay));
    }
  }
  FilterToArea(sensors_in_w, &inputs);
  return inputs;
}

std::vector<AtypicalCluster> QueryEngine::CollectMicros(
    const AnalyticalQuery& query, QueryScratch* scratch,
    QueryCost* cost) const {
  forest_->MicrosInRange(query.days, &scratch->micros_in_range);
  std::vector<AtypicalCluster> micros;
  for (const AtypicalCluster* micro : scratch->micros_in_range) {
    ++cost->micro_clusters_in_range;
    // A micro-cluster belongs to the query if it touches W at all; events
    // straddling the boundary keep their full features (their severity must
    // stay exact for Def. 5 to be meaningful).
    if (TouchesArea(*micro, scratch->sensors_in_w)) {
      micros.push_back(WithTemporalKeyMode(*micro, forest_->time_grid(),
                                           TemporalKeyMode::kTimeOfDay));
    }
  }
  return micros;
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
    // Returning early (instead of planning over a zero-length range) keeps
    // the threshold consistent with the empty evidence set.
    static obs::Counter* const empty_range =
        obs::Registry()->GetCounter("query.empty_range");
    empty_range->Add(1);
    return result;
  }
  std::vector<SensorId>& in_w = scratch->sensors_in_w;
  network_->SensorsInRect(query.area, &in_w);
  DCHECK(std::is_sorted(in_w.begin(), in_w.end()));
  result.num_sensors_in_w = static_cast<int>(in_w.size());
  result.threshold =
      SignificanceThreshold(options_.significance, query.days,
                            forest_->time_grid(), result.num_sensors_in_w);

  // Pru/Gui prune at micro granularity, so the materialized plan is only
  // sound for All.
  const bool planned =
      options_.use_materialized_levels && strategy == QueryStrategy::kAll;
  std::vector<AtypicalCluster> micros =
      planned ? CollectPlannedInputs(query, in_w, &result.cost)
              : CollectMicros(query, scratch, &result.cost);

  switch (strategy) {
    case QueryStrategy::kAll:
      break;
    case QueryStrategy::kPrune: {
      // Beforehand pruning: only micro-clusters that already clear the
      // query's significance bar are integrated (in place, order kept).
      std::erase_if(micros, [&](const AtypicalCluster& m) {
        return !IsSignificant(m, result.threshold);
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
      micros = cube::FilterByRedZones(std::move(micros), red, *regions_,
                                      options_.red_zone_mode);
      break;
    }
  }

  result.cost.input_micro_clusters = micros.size();
  // Query-local id source: results are bit-identical for the same query on
  // the same forest state regardless of prior or concurrent queries, and
  // the forest stays untouched (see kQueryMacroIdBase).
  ClusterIdGenerator result_ids(kQueryMacroIdBase);
  result.clusters = IntegrateClusters(std::move(micros), options_.integration,
                                      &result_ids, &result.cost.integration);

  if (options_.post_check_significance) {
    // Algorithm 4 lines 5–7: remove false positives (in place, order kept).
    std::erase_if(result.clusters, [&](const AtypicalCluster& c) {
      return !IsSignificant(c, result.threshold);
    });
  }

  // Completeness annotation: fold the forest's per-day provenance over T so
  // the caller can tell a quiet day from a blind one.
  DataCompleteness& completeness = result.completeness;
  completeness.days_in_range = query.days.NumDays();
  completeness.integration_converged = result.cost.integration.converged;
  for (int day = query.days.first_day; day <= query.days.last_day; ++day) {
    if (forest_->HasDay(day)) ++completeness.days_with_data;
    const DayProvenance* provenance = forest_->day_provenance(day);
    if (provenance == nullptr || !provenance->degraded()) continue;
    ++completeness.days_degraded;
    completeness.records_lost += provenance->records_lost;
    completeness.records_quarantined += provenance->records_quarantined;
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
  static obs::Counter* const obs_materialized =
      obs::Registry()->GetCounter("query.materialized_inputs");
  static obs::Counter* const obs_materialized_days =
      obs::Registry()->GetCounter("query.days_from_materialized");
  static obs::Counter* const obs_stale_skipped =
      obs::Registry()->GetCounter("query.stale_materialized_skipped");
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
  obs_materialized->Add(result.cost.materialized_inputs);
  obs_materialized_days->Add(
      static_cast<uint64_t>(std::max(0, result.cost.days_from_materialized)));
  obs_stale_skipped->Add(result.cost.stale_materialized_skipped);
  obs_clusters_out->Add(result.clusters.size());
  obs_seconds->Record(result.cost.seconds);
  return result;
}

}  // namespace atypical
