// Analytical query processing (§IV): Q(W, T) over the atypical forest with
// three strategies.
//
//   kAll    — integrate every micro-cluster in range (exact, quadratic);
//   kPrune  — beforehand pruning: integrate only micro-clusters that are
//             themselves significant at the query's threshold (fast, but
//             misses significant macro-clusters built from trivial micros —
//             Example 6);
//   kGuided — Algorithm 4: compute red zones from the region×day severity
//             measure, prune micro-clusters outside them, integrate the
//             rest, optionally post-check severities to remove false
//             positives.
#ifndef ATYPICAL_CORE_QUERY_H_
#define ATYPICAL_CORE_QUERY_H_

#include <cstdint>
#include <vector>

#include "core/forest.h"
#include "core/integration.h"
#include "core/significance.h"
#include "cps/region_grid.h"
#include "cube/measure.h"
#include "cube/red_zone.h"
#include "util/hot_path.h"

namespace atypical {

// Q(W, T): spatial rectangle and day range.
struct AnalyticalQuery {
  GeoRect area;
  DayRange days;
};

// First id handed to macro-clusters a query's integration creates.  Run()
// draws from a query-local generator starting here instead of the forest's
// shared one, so (a) the engine never mutates the forest — Run() is truly
// const and safe on a forest shared by concurrent readers — and (b) the same
// query on the same forest state returns bit-identical results, ids
// included, no matter how many queries ran before or alongside it (the
// serving layer's served-equals-direct contract, DESIGN §16).  The base
// sits far above every stored id (leaf micros count from 1, the incremental
// integrator's scratch ids from 2^40), so result macro ids never collide
// with the micro ids they reference.
inline constexpr ClusterId kQueryMacroIdBase = ClusterId{1} << 42;

enum class QueryStrategy : uint8_t { kAll, kPrune, kGuided };

const char* QueryStrategyName(QueryStrategy strategy);

struct QueryCost {
  double seconds = 0.0;
  // The paper's I/O measure: number of micro-clusters fed to integration.
  size_t input_micro_clusters = 0;
  size_t micro_clusters_in_range = 0;
  size_t red_zones = 0;
  size_t regions_checked = 0;
  IntegrationStats integration;
};

// How much of the queried range the answer actually saw.  Built from the
// forest's per-day provenance (DayProvenance), it distinguishes a *quiet*
// day — in range, no data, no damage recorded — from a *blind* day, where
// the ingest path recorded loss.  An empty result over a degraded range
// means "we couldn't see", not "nothing happened".
struct DataCompleteness {
  int64_t days_in_range = 0;
  int days_with_data = 0;      // days with stored micro-clusters
  int days_degraded = 0;       // days whose provenance records damage
  uint64_t records_lost = 0;   // summed over the range
  uint64_t records_quarantined = 0;
  // False when the query's own integration hit its round budget
  // (IntegrationStats::converged): clusters may be under-merged.
  bool integration_converged = true;

  bool complete() const {
    return days_degraded == 0 && records_lost == 0 &&
           records_quarantined == 0 && integration_converged;
  }
};

struct QueryResult {
  // Integrated macro-clusters (TF keyed by time-of-day).  Without
  // post-checking this is the full integration output; with post-checking
  // only clusters above the significance threshold remain.
  std::vector<AtypicalCluster> clusters;
  double threshold = 0.0;
  int num_sensors_in_w = 0;
  // Data-quality annotation for the answer (degradation contract, DESIGN
  // §12).  Always populated by Run(), even for empty ranges.
  DataCompleteness completeness;
  QueryCost cost;
};

struct QueryEngineOptions {
  IntegrationParams integration;
  SignificanceParams significance;
  cube::RedZoneFilterMode red_zone_mode =
      cube::RedZoneFilterMode::kKeepIntersecting;
  // Algorithm 4 lines 5–7: drop macro-clusters below the threshold after
  // integration.  Off by default to mirror the paper's experimental setup
  // ("this procedure is turned off in the experiments for a fair play").
  bool post_check_significance = false;
};

// Caller-owned reusable buffers for QueryEngine::Run (DESIGN §15).  A
// serving loop keeps one per worker thread; repeated queries then reuse the
// grown capacity instead of re-allocating scratch per call.  The alloc_probe
// tests pin Run()'s steady-state allocation count with a warm scratch.
struct QueryScratch {
  // Dense per-query sensor masks, one byte per sensor of the network:
  // in_w[s] is 1 iff s lies in W; in_red[s] (Gui only) is 1 iff s lies in a
  // red zone.  Filters test a spatial entry with one load.
  std::vector<uint8_t> in_w;
  std::vector<uint8_t> in_red;
  // Integration candidates as pointers into the forest's immutable leaf
  // micro-clusters, in day order.  The filters erase from it; only the
  // survivors are ever copied.
  std::vector<const AtypicalCluster*> candidates;
};

// Online query processor over a built forest.  The region×day severity
// measure drives the red-zone guidance; it must cover the forest's data.
class QueryEngine {
 public:
  // The engine only ever reads the forest: queries draw result ids from a
  // query-local generator (kQueryMacroIdBase), so a const forest is enough
  // and concurrent Run() calls never race a writer through the engine.
  QueryEngine(const SensorNetwork* network, const RegionGrid* regions,
              const AtypicalForest* forest,
              const cube::RegionDayMeasure* measure,
              const QueryEngineOptions& options);

  const QueryEngineOptions& options() const { return options_; }

  // Runs Q(W, T).  An empty or inverted day range (NumDays() <= 0) covers
  // no days and returns the default-constructed QueryResult: no clusters,
  // zero threshold, zero num_sensors_in_w, zero cost.
  ATYPICAL_HOT QueryResult Run(const AnalyticalQuery& query,
                               QueryStrategy strategy) const;

  // As above, with caller-owned scratch reused across calls.  This is the
  // serving-loop entry point: at steady state (warm scratch, warm forest)
  // its allocations are O(result), pinned by tests/alloc_probe_test.cc.
  // Prepare works on pointers: the area, Pru and Gui filters erase from
  // the candidate pointers, and only the survivors are copied (re-keyed to
  // time-of-day) into integration.
  ATYPICAL_HOT QueryResult Run(const AnalyticalQuery& query,
                               QueryStrategy strategy,
                               QueryScratch* scratch) const;

 private:
  const SensorNetwork* network_;
  const RegionGrid* regions_;
  const AtypicalForest* forest_;
  const cube::RegionDayMeasure* measure_;
  QueryEngineOptions options_;
};

}  // namespace atypical

#endif  // ATYPICAL_CORE_QUERY_H_
