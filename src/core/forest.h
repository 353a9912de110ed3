// The atypical forest (§III.C): per-day micro-clusters at the leaves,
// optionally materialized weekly/monthly macro-cluster levels above them.
//
// The forest is the system's offline-constructed model.  Analytical queries
// integrate leaf micro-clusters on demand (the paper's experiments
// pre-compute only the daily micro-clusters); materialized levels exist for
// larger deployments and are exercised by the materialization ablation.
#ifndef ATYPICAL_CORE_FOREST_H_
#define ATYPICAL_CORE_FOREST_H_

#include <map>
#include <memory>
#include <vector>

#include "core/cluster.h"
#include "core/event_retrieval.h"
#include "core/integration.h"
#include "cps/record.h"
#include "cps/sensor_network.h"
#include "util/hot_path.h"

namespace atypical {

struct ForestParams {
  RetrievalParams retrieval;
  IntegrationParams integration;
};

// Data-quality provenance of one stored day: what the ingest path knows it
// lost before the day's records reached the forest.  Populated from the
// salvage reader's SalvageReport and the ingest guard's quarantine tally;
// queries over the day surface it as a completeness annotation, so a day
// with no clusters is distinguishable as "quiet" (no damage recorded) vs
// "blind" (records were lost on the way in).
struct DayProvenance {
  uint64_t records_stored = 0;       // records that reached the forest
  uint64_t records_lost = 0;         // lost to storage damage (salvage)
  uint64_t records_quarantined = 0;  // rejected by the ingest guard
  uint64_t blocks_skipped = 0;       // CRC-failed / implausible blocks
  bool footer_missing = false;       // source file ended mid-structure

  bool degraded() const {
    return records_lost > 0 || records_quarantined > 0 || blocks_skipped > 0 ||
           footer_missing;
  }
};

class AtypicalForest {
 public:
  AtypicalForest(const SensorNetwork* network, const TimeGrid& grid,
                 const ForestParams& params);

  const TimeGrid& time_grid() const { return grid_; }
  const ForestParams& params() const { return params_; }
  ClusterIdGenerator* ids() { return &ids_; }

  // Builds and stores the micro-clusters of one day.  `records` must all
  // fall on `day`.  Days may arrive in any order, and a day may arrive more
  // than once: a later batch is clustered on its own and its micro-clusters
  // are appended to the day's leaf set.  Records split across batches are
  // not re-joined at the leaf — query-time integration merges similar
  // clusters — and materialized week/month levels are not refreshed; call
  // MaterializeWeeks/MaterializeMonths again after late batches.  Until
  // then the affected levels read as stale (WeekIsStale/MonthIsStale) and
  // the query planner falls back to the day leaves instead of serving
  // pre-batch macros.
  void AddDay(int day, const std::vector<AtypicalRecord>& records);

  // Groups `records` by day and adds each day (appending to days already
  // present, per the AddDay batch-merge policy).
  void AddRecords(const std::vector<AtypicalRecord>& records);

  // Days present, ascending.
  std::vector<int> Days() const;
  bool HasDay(int day) const { return days_.contains(day); }
  const std::vector<AtypicalCluster>& MicrosOfDay(int day) const;

  // Leaf micro-clusters whose day falls in `range` (ascending day order).
  std::vector<const AtypicalCluster*> MicrosInRange(const DayRange& range) const;

  // Micro-cluster severities by id over `range` (evaluation support).
  std::map<ClusterId, double> MicroSeverities(const DayRange& range) const;

  // Materializes week-level macro-clusters (time-of-day TF keys) for every
  // complete set of stored days in each week.  Re-materializing replaces the
  // level.  Returns the number of macro-clusters built.
  size_t MaterializeWeeks();
  // Same per `days_per_month`-day month.
  size_t MaterializeMonths(int days_per_month);
  // Month length used by MaterializeMonths; 0 when months were never
  // materialized.
  int month_days() const { return month_days_; }

  bool HasWeek(int week) const { return macros_by_week_.contains(week); }
  const std::vector<AtypicalCluster>& MacrosOfWeek(int week) const;
  bool HasMonth(int month) const { return macros_by_month_.contains(month); }
  const std::vector<AtypicalCluster>& MacrosOfMonth(int month) const;
  std::vector<int> MaterializedWeeks() const;
  std::vector<int> MaterializedMonths() const;

  // ---- mutation versioning ----
  // Monotone counter bumped by every day mutation (AddDay / AddRecords /
  // InstallDay) and every materialization, which stamps its level with the
  // new version.  A materialized level whose covered days mutated afterwards
  // is thus detectable as stale — the query planner must not serve its
  // macros (QueryEngine skips them and counts
  // query.stale_materialized_skipped).  Cube changes and
  // RecordDayProvenance() leave the version alone, so it is no "anything
  // changed since publish" signal.
  //
  // True when some day in the week's/month's span mutated after the level
  // was last materialized.  Weeks/months that were never
  // materialized are not stale — they are simply absent.
  ATYPICAL_HOT bool WeekIsStale(int week) const;
  ATYPICAL_HOT bool MonthIsStale(int month) const;

  // Installs a day's pre-built micro-clusters directly, bypassing
  // retrieval (e.g. leaves finalized by an IncrementalIntegrator).  The id
  // generator is advanced past every installed cluster id and micro id so
  // new clusters never collide with installed ones.
  void InstallDay(int day, std::vector<AtypicalCluster> micros);

  // ---- degradation provenance ----
  // Accumulates damage metadata for `day` (fields add up across calls, so
  // per-batch and per-source tallies compose).  Recording a provenance with
  // damage bumps the degradation.* obs counters.
  void RecordDayProvenance(int day, const DayProvenance& provenance);
  // Damage metadata for `day`, or nullptr when none was ever recorded
  // (which a query reads as "no known loss").
  const DayProvenance* day_provenance(int day) const;

  size_t num_micro_clusters() const { return num_micros_; }
  uint64_t ByteSize() const;

  // The forest of a published epoch (DESIGN §16), given the epoch copy made
  // at the last publish (or nullptr).  Days and levels unchanged since then
  // share its blocks; the rest are deep-copied, in day order, so this forest
  // keeps its own.  Adds the number of blocks copied to `*copied`.
  AtypicalForest EpochCopy(const AtypicalForest* previous,
                           uint64_t* copied) const;

 private:
  // A day's leaves, or a week's or month's macros.  Mutations swap in a new
  // block and never write through one, so forest copies can share blocks.
  using Block = std::shared_ptr<const std::vector<AtypicalCluster>>;
  struct Day {
    Block micros;
    uint64_t version = 0;  // of the day's last mutation
  };

  // Integrates the day-leaf micros of `range` after re-keying to
  // time-of-day.
  std::vector<AtypicalCluster> IntegrateRange(const DayRange& range);

  // Moves the id generator past every id in `clusters`.
  void AdvanceIdsPast(const std::vector<AtypicalCluster>& clusters);

  // Any day in [first_day, last_day] mutated after `level_version`?
  bool DaysMutatedSince(int first_day, int last_day,
                        uint64_t level_version) const;

  const SensorNetwork* network_;
  TimeGrid grid_;
  ForestParams params_;
  ClusterIdGenerator ids_;
  std::map<int, Day> days_;
  std::map<int, Block> macros_by_week_;
  std::map<int, Block> macros_by_month_;
  std::map<int, DayProvenance> provenance_by_day_;
  size_t num_micros_ = 0;
  int month_days_ = 0;
  // Mutation versioning: version_ counts day mutations and
  // materializations, each Day holds the version of its last mutation, and
  // the per-level stamps record the version the level was materialized at.
  uint64_t version_ = 0;
  uint64_t weeks_version_ = 0;
  uint64_t months_version_ = 0;
};

}  // namespace atypical

#endif  // ATYPICAL_CORE_FOREST_H_
