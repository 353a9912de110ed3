// The repo benchmark: drives the atypical pipeline in one process, one
// thread and a closed loop, and times it from outside.
//
//   pipeline_bench --workload ingest_live|query_local|query_wide --seed N
//                  --seconds S --trace 0|1 [--scale small|tiny]
//                  [--trace-out FILE]
//
// Set-up generates every input (the synthetic deployment and its twelve
// months of traffic, and from the seed the feed as it arrives and the
// query list) and builds the model through the evening cycle; the timed
// loop then only calls the system's public functions.  The program prints
// one JSON report on stdout; perfbench/run.py turns it into the
// benchmark's result line and checks the answer digest.
//
// Workloads (why each exists is in BENCHMARK.json):
//   ingest_live  op = one day cycle: guard -> integrator -> Finalize ->
//                InstallDay -> cube merge -> PublishSnapshot -> rolling
//                7-day whole-area Gui query on the new epoch.  Set-up
//                builds four months; a pass streams the other 224 days.
//   query_local  op = one uncached query, 1-7 days, 20-50% of the area,
//                strategies All, Pru and Gui in rotation.
//   query_wide   op = one uncached whole-area Gui query over 14-28 days.
//
// A pass is a fixed amount of work (every live day, or the query list
// once); the loop runs passes until --seconds have passed.  Every pass must
// return the same answers, which is what makes the answer digest and the
// exact counts repeatable whatever the machine's speed.
//
// With --trace 1 untraced and traced passes alternate.  Spans are recorded
// around each call into a layer (see span_recorder.h), also during the
// set-up's model build, so every layer has work on every workload.  Layer
// times are the build's plus the median traced pass's; the difference
// between traced and untraced passes is reported as tracing overhead.
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analytics/report.h"
#include "core/event_retrieval.h"
#include "core/incremental_integration.h"
#include "core/ingest.h"
#include "core/query.h"
#include "cube/cube.h"
#include "gen/workload.h"
#include "serve/query_service.h"
#include "serve/snapshot.h"
#include "span_recorder.h"
#include "util/alloc_probe.h"
#include "util/fault.h"
#include "util/random.h"

namespace perfbench {
namespace {

using atypical::AnalyticalQuery;
using atypical::AtypicalCluster;
using atypical::AtypicalRecord;
using atypical::QueryCost;
using atypical::serve::ServeReply;
using atypical::serve::ServeStrategy;

enum class WorkloadKind { kIngestLive, kQueryLocal, kQueryWide };

struct Config {
  WorkloadKind workload = WorkloadKind::kIngestLive;
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string trace_out;
};

// Sizes per scale.  kSmall is the benchmark; kTiny is for the smoke test.
struct Sizes {
  atypical::WorkloadScale scale;
  int history_months;  // ingest_live: months built during set-up
  int local_queries;   // query_local list length (a multiple of 21)
  int wide_queries;    // query_wide list length (a multiple of 15)
};

Sizes SizesFor(const Config& config) {
  if (config.tiny) return {atypical::WorkloadScale::kTiny, 1, 21, 15};
  return {atypical::WorkloadScale::kSmall, 4, 903, 60};
}

// The deployment and its months of traffic are the benchmark's fixed data
// set; --seed draws everything that arrives: the feed's delays, duplicates
// and corruptions, and the query list.  Drawn from --seed, the world's
// model size ranged over 6.39-6.90 MB for seeds 1-5, and the work per op
// with it, so the spread between seeds would measure the input as well as
// the program.
constexpr uint64_t kWorldSeed = 1;

// Set-ups per untraced run; setup_s is their median.
constexpr int kSetupReps = 3;

constexpr int kLatenessHorizon = 4;
constexpr double kDuplicateRate = 0.02;
constexpr double kCorruptRate = 0.01;

// FNV-1a over 64-bit words.
class Digest {
 public:
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 1099511628211ULL;
    }
  }
  // A cluster's identity and answer: its id, its micro ids and the bit
  // pattern of its severity.  The repo's bit-identity contracts make all
  // three reproducible for one input.
  void Fold(const AtypicalCluster& c) {
    Mix(c.id);
    Mix(c.micro_ids.size());
    for (atypical::ClusterId id : c.micro_ids) Mix(id);
    Mix(std::bit_cast<uint64_t>(c.severity()));
  }
  void Fold(const std::vector<AtypicalCluster>& clusters) {
    Mix(clusters.size());
    for (const AtypicalCluster& c : clusters) Fold(c);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

// Exact work counts.  They repeat exactly for one seed, so they carry the
// per-layer evidence when wall time is noisy.
struct Counts {
  uint64_t records_in = 0;
  uint64_t quarantined = 0;
  uint64_t reordered = 0;
  uint64_t online_merges = 0;
  uint64_t online_similarity_checks = 0;
  uint64_t queries = 0;
  uint64_t micros_in_range = 0;
  uint64_t inputs = 0;
  uint64_t red_zones = 0;
  uint64_t similarity_checks = 0;
  uint64_t merges = 0;
  uint64_t exact_scans = 0;
  uint64_t pruned_scans = 0;
  uint64_t clusters_out = 0;

  void AddQuery(const atypical::QueryResult& result) {
    const QueryCost& cost = result.cost;
    ++queries;
    micros_in_range += cost.micro_clusters_in_range;
    inputs += cost.input_micro_clusters;
    red_zones += cost.red_zones;
    similarity_checks += cost.integration.similarity_checks;
    merges += cost.integration.merges;
    exact_scans += cost.integration.exact_scans;
    pruned_scans += cost.integration.pruned_scans;
    clusters_out += result.clusters.size();
  }
  void Add(const Counts& o) {
    records_in += o.records_in;
    quarantined += o.quarantined;
    reordered += o.reordered;
    online_merges += o.online_merges;
    online_similarity_checks += o.online_similarity_checks;
    queries += o.queries;
    micros_in_range += o.micros_in_range;
    inputs += o.inputs;
    red_zones += o.red_zones;
    similarity_checks += o.similarity_checks;
    merges += o.merges;
    exact_scans += o.exact_scans;
    pruned_scans += o.pruned_scans;
    clusters_out += o.clusters_out;
  }
  bool operator==(const Counts&) const = default;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile of a sorted sample.
double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double n = static_cast<double>(sorted.size());
  const size_t rank =
      std::clamp<size_t>(static_cast<size_t>(std::ceil(p * n)), 1,
                         sorted.size());
  return sorted[rank - 1];
}

double SecondsSince(int64_t start_ns) {
  return static_cast<double>(NowNs() - start_ns) * 1e-9;
}

// Everything set-up produces: the generated inputs and the built model.
struct State {
  std::unique_ptr<atypical::Workload> world;
  int num_days = 0;
  int build_days = 0;  // days built into the model during set-up
  // The day's feed as it arrives: delayed, duplicated and corrupted.
  std::vector<std::vector<AtypicalRecord>> feed;
  // The set-up's model.  ingest_live starts every pass from a copy of it.
  std::unique_ptr<atypical::serve::ServingForest> serving;
  std::unique_ptr<atypical::serve::QueryService> service;
  atypical::QueryScratch scratch;
  std::vector<AnalyticalQuery> queries;
  std::vector<ServeStrategy> strategies;
  // Set-up accounting for the traced run.
  Counts build_counts;
  size_t build_span_begin = 0;
  size_t build_span_end = 0;
  double build_wall_s = 0.0;
  uint64_t warm_digest = 0;  // query workloads: the list's answers
  bool build_ok = true;
};

atypical::serve::ServeOptions UncachedServeOptions() {
  atypical::serve::ServeOptions options;
  options.cache_entries = 0;
  return options;
}

// One ServeQuery call with its span.  QueryCost reports how much of the
// call the engine spent, and how much of that in integration (Algorithm
// 3); those become the span's reported children.
ServeReply Serve(SpanRecorder* rec, atypical::serve::QueryService* service,
                 const AnalyticalQuery& query, ServeStrategy strategy,
                 atypical::QueryScratch* scratch, const char* span_name) {
  ServeReply reply;
  int32_t index = -1;
  {
    SpanRecorder::Scope span(rec, span_name);
    reply = service->ServeQuery(query, strategy, scratch);
    index = span.index();
  }
  const QueryCost& cost = reply.result->cost;
  rec->AddReportedChild(index, "query.integrate", cost.integration.seconds,
                        0.0);
  rec->AddReportedChild(index, "query.prepare",
                        cost.seconds - cost.integration.seconds,
                        cost.integration.seconds);
  return reply;
}

AnalyticalQuery RollingQuery(const atypical::Workload& world, int day) {
  AnalyticalQuery query;
  query.area = world.sensors->bounds();
  query.days = atypical::DayRange{std::max(0, day - 6), day};
  return query;
}

// The evening cycle's write half for one ServingForest: the robust ingest
// guard feeding the incremental integrator, then Finalize, InstallDay and
// the cube merge.  Publishing and querying are left to the caller.
class EveningCycle {
 public:
  EveningCycle(const atypical::Workload& world,
               atypical::serve::ServingForest* serving, SpanRecorder* rec)
      : world_(world),
        serving_(serving),
        rec_(rec),
        integrator_(serving->staging_forest()->params().integration,
                    serving->staging_forest()->ids()),
        guard_(world.sensors.get(), world.gen_config.time_grid,
               serving->staging_forest()->params().retrieval,
               integrator_.scratch_ids(), TracedEmit(), GuardOptions()) {
    guard_.set_accept_tap(
        [this](const AtypicalRecord& r) { validated_.push_back(r); });
  }
  EveningCycle(const EveningCycle&) = delete;
  EveningCycle& operator=(const EveningCycle&) = delete;

  // Runs the write half for `day`.  Returns false when the op failed: the
  // day's ingest counts do not reconcile or integration did not converge.
  bool IngestDay(int day, const std::vector<AtypicalRecord>& feed) {
    const atypical::IngestStats before = guard_.stats();
    validated_.clear();
    {
      SpanRecorder::Scope span(rec_, "ingest.add");
      for (const AtypicalRecord& r : feed) guard_.Add(r);
    }
    {
      SpanRecorder::Scope span(rec_, "ingest.flush");
      guard_.Flush();
    }
    atypical::IntegrationStats stats;
    std::vector<AtypicalCluster> micros;
    {
      SpanRecorder::Scope span(rec_, "integration.finalize");
      integrator_.Finalize(&stats, &micros);
    }
    {
      SpanRecorder::Scope span(rec_, "forest.install");
      serving_->staging_forest()->InstallDay(day, std::move(micros));
    }
    {
      SpanRecorder::Scope span(rec_, "ingest.reset");
      guard_.Reset();
    }
    {
      SpanRecorder::Scope span(rec_, "integration.reset");
      integrator_.Reset();
    }
    atypical::cube::BottomUpCube day_cube;
    {
      SpanRecorder::Scope span(rec_, "cube.from_atypical");
      day_cube = atypical::cube::BottomUpCube::FromAtypical(
          validated_, *world_.regions, world_.gen_config.time_grid);
    }
    {
      SpanRecorder::Scope span(rec_, "cube.merge");
      serving_->staging_cube()->MergeFrom(day_cube);
    }
    const atypical::IngestStats& after = guard_.stats();
    atypical::IngestStats delta;
    delta.records_in = after.records_in - before.records_in;
    delta.accepted = after.accepted - before.accepted;
    delta.quarantined_unknown_sensor =
        after.quarantined_unknown_sensor - before.quarantined_unknown_sensor;
    delta.quarantined_bad_severity =
        after.quarantined_bad_severity - before.quarantined_bad_severity;
    delta.quarantined_excess_severity =
        after.quarantined_excess_severity - before.quarantined_excess_severity;
    delta.quarantined_duplicate =
        after.quarantined_duplicate - before.quarantined_duplicate;
    delta.quarantined_late = after.quarantined_late - before.quarantined_late;
    return delta.records_in == feed.size() && delta.Reconciles() &&
           stats.converged;
  }

  // The records the guard released on the last IngestDay: the batch input.
  const std::vector<AtypicalRecord>& validated() const { return validated_; }

  // Ingest and online-integration counts since construction.
  Counts counts() const {
    Counts c;
    c.records_in = guard_.stats().records_in;
    c.quarantined = guard_.stats().quarantined();
    c.reordered = guard_.stats().reordered;
    c.online_merges = integrator_.online_stats().online_merges;
    c.online_similarity_checks = integrator_.online_stats().similarity_checks;
    return c;
  }

 private:
  static atypical::IngestOptions GuardOptions() {
    atypical::IngestOptions options;
    options.policy = atypical::IngestPolicy::kBuffer;
    options.lateness_horizon_windows = kLatenessHorizon;
    return options;
  }
  // The integrator's emit seam wrapped in an integration.accept span.
  atypical::StreamingEventBuilder::EmitSeqFn TracedEmit() {
    atypical::StreamingEventBuilder::EmitSeqFn accept =
        integrator_.AsEmitFn();
    return [rec = rec_, accept](AtypicalCluster micro, uint64_t seq) {
      SpanRecorder::Scope span(rec, "integration.accept");
      accept(std::move(micro), seq);
    };
  }

  const atypical::Workload& world_;
  atypical::serve::ServingForest* serving_;
  SpanRecorder* rec_;
  atypical::IncrementalIntegrator integrator_;
  atypical::RobustStreamingEventBuilder guard_;
  std::vector<AtypicalRecord> validated_;
};

std::unique_ptr<atypical::serve::ServingForest> NewServingForest(
    const atypical::Workload& world) {
  return std::make_unique<atypical::serve::ServingForest>(
      world.sensors.get(), world.regions.get(), world.gen_config.time_grid,
      atypical::analytics::DefaultForestParams(),
      atypical::analytics::DefaultEngineOptions());
}

// The query list.  The properties that decide a query's cost are
// stratified rather than drawn: every combination of length, strategy and
// area stratum appears exactly once (7, 3 and 43 are coprime), and the
// start days sample the year evenly, so two seeds' lists cost about the
// same and differ in which day, place and shape each query gets.
void MakeQueries(const Config& config, const Sizes& sizes, State* state) {
  atypical::Rng rng(config.seed * 0x9e3779b97f4a7c15ULL + 0x51ed);
  const atypical::GeoRect bounds = state->world->sensors->bounds();
  const bool local = config.workload == WorkloadKind::kQueryLocal;
  const int count = local ? sizes.local_queries : sizes.wide_queries;
  // Start-day strata, dealt to the queries in a seeded order.
  std::vector<int> stratum(count);
  for (int i = 0; i < count; ++i) stratum[i] = i;
  for (int i = count - 1; i > 0; --i) {
    std::swap(stratum[i],
              stratum[rng.UniformInt(static_cast<uint64_t>(i + 1))]);
  }
  for (int i = 0; i < count; ++i) {
    const int len = local ? 1 + i % 7
                          : std::min(state->num_days, 14 + i % 15);
    const double starts = state->num_days - len + 1;
    const int first = std::min(
        state->num_days - len,
        static_cast<int>((stratum[i] + rng.Uniform()) * starts / count));
    AnalyticalQuery query;
    query.days = atypical::DayRange{first, first + len - 1};
    query.area = bounds;
    if (local) {
      // A rectangle covering a share f in [0.2, 0.5) of the area, of random
      // aspect and position.
      const double f = 0.2 + 0.3 * ((i % 43) + rng.Uniform()) / 43.0;
      const double wf = rng.Uniform(f, 1.0);
      const double hf = f / wf;
      const double x0 =
          bounds.min_x + rng.Uniform(0.0, 1.0 - wf) * bounds.Width();
      const double y0 =
          bounds.min_y + rng.Uniform(0.0, 1.0 - hf) * bounds.Height();
      query.area = atypical::GeoRect{x0, y0, x0 + wf * bounds.Width(),
                                     y0 + hf * bounds.Height()};
    }
    static constexpr ServeStrategy kRotation[] = {
        ServeStrategy::kAll, ServeStrategy::kPrune, ServeStrategy::kGuided};
    state->queries.push_back(query);
    state->strategies.push_back(local ? kRotation[i % 3]
                                      : ServeStrategy::kGuided);
  }
}

// Generates every input and builds the model.  `rec` records the model
// build when it is enabled.
std::unique_ptr<State> SetUp(const Config& config, const Sizes& sizes,
                             SpanRecorder* rec) {
  auto state = std::make_unique<State>();
  state->world = atypical::MakeWorkload(sizes.scale, kWorldSeed);
  const atypical::Workload& world = *state->world;
  const atypical::TimeGrid grid = world.gen_config.time_grid;
  state->num_days = world.num_months * world.gen_config.days_per_month;
  state->build_days =
      config.workload == WorkloadKind::kIngestLive
          ? sizes.history_months * world.gen_config.days_per_month
          : state->num_days;

  // The feed: each day's records, mangled in transit the way
  // examples/online_monitoring mangles them.
  std::vector<std::vector<AtypicalRecord>> by_day(state->num_days);
  for (int month = 0; month < world.num_months; ++month) {
    for (const AtypicalRecord& r :
         world.generator->GenerateMonthAtypical(month)) {
      by_day[grid.DayOfWindow(r.window)].push_back(r);
    }
  }
  atypical::FaultPlan transport(config.seed * 1000003ULL + 2026);
  for (std::vector<AtypicalRecord>& records : by_day) {
    std::vector<AtypicalRecord> feed =
        transport.DelayRecords(std::move(records), kLatenessHorizon);
    feed = transport.DuplicateRecords(std::move(feed), kDuplicateRate);
    state->feed.push_back(
        transport.CorruptRecords(std::move(feed), kCorruptRate, grid));
  }

  // The model: the evening cycle over the build days, one publish at the
  // end and the rolling query on that epoch.
  const int64_t build_start = NowNs();
  state->build_span_begin = rec->size();
  state->serving = NewServingForest(world);
  state->service = std::make_unique<atypical::serve::QueryService>(
      state->serving.get(), UncachedServeOptions());
  {
    EveningCycle cycle(world, state->serving.get(), rec);
    for (int day = 0; day < state->build_days; ++day) {
      state->build_ok &= cycle.IngestDay(day, state->feed[day]);
    }
    state->build_counts = cycle.counts();
  }
  {
    SpanRecorder::Scope span(rec, "serve.publish");
    state->serving->PublishSnapshot();
  }
  const ServeReply rolling =
      Serve(rec, state->service.get(),
            RollingQuery(world, state->build_days - 1),
            ServeStrategy::kGuided, &state->scratch, "serve.rolling");
  state->build_counts.AddQuery(*rolling.result);
  state->build_ok &= rolling.result->completeness.integration_converged;
  state->build_span_end = rec->size();
  state->build_wall_s = SecondsSince(build_start);

  // Warm-up: the query list once, untraced, so lazy sketches and the
  // QueryScratch are warm before the first timed op.
  if (config.workload != WorkloadKind::kIngestLive) {
    MakeQueries(config, sizes, state.get());
    const bool was_enabled = rec->enabled();
    rec->set_enabled(false);
    Digest digest;
    for (size_t i = 0; i < state->queries.size(); ++i) {
      const ServeReply reply =
          Serve(rec, state->service.get(), state->queries[i],
                state->strategies[i], &state->scratch, "serve.query");
      digest.Fold(reply.result->clusters);
    }
    state->warm_digest = digest.value();
    rec->set_enabled(was_enabled);
  }
  return state;
}

// One pass of the timed loop.
struct PassResult {
  std::vector<double> latency_s;  // per op
  double busy_s = 0.0;            // sum of op latencies
  double wall_s = 0.0;            // the pass's own wall time
  uint64_t records = 0;           // feed records handed over (ingest_live)
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t allocs = 0;
  uint64_t model_bytes = 0;
  uint64_t digest = 0;
  Counts counts;
  bool traced = false;
  size_t span_begin = 0;
  size_t span_end = 0;
};

// Streamed == batch (DESIGN §14): the micro-clusters ingest_live installed
// for a day must be bit-identical, ids included, to batch retrieval over
// the records the guard released that day.
struct DayCheck {
  int day = 0;
  std::vector<AtypicalRecord> validated;
  uint64_t installed_digest = 0;
  atypical::ClusterId first_id = 0;
};

PassResult RunIngestPass(State* state, SpanRecorder* rec, uint32_t* op,
                         std::vector<DayCheck>* day_checks) {
  const atypical::Workload& world = *state->world;
  PassResult pass;
  // Every pass starts from a copy of the set-up's model (not timed).
  auto serving = NewServingForest(world);
  const atypical::AtypicalForest& history = *state->serving->staging_forest();
  for (int day = 0; day < state->build_days; ++day) {
    serving->staging_forest()->InstallDay(day, history.MicrosOfDay(day));
  }
  serving->staging_cube()->MergeFrom(*state->serving->staging_cube());
  serving->PublishSnapshot();
  atypical::serve::QueryService service(serving.get(), UncachedServeOptions());
  atypical::QueryScratch scratch;
  EveningCycle cycle(world, serving.get(), rec);

  const int64_t pass_start = NowNs();
  pass.span_begin = rec->size();
  Digest digest;
  for (int day = state->build_days; day < state->num_days; ++day) {
    rec->set_op(++*op);
    const std::vector<AtypicalRecord>& feed = state->feed[day];
    const atypical::util::AllocProbe probe;
    const int64_t t0 = NowNs();
    bool ok = cycle.IngestDay(day, feed);
    {
      SpanRecorder::Scope span(rec, "serve.publish");
      serving->PublishSnapshot();
    }
    const ServeReply reply =
        Serve(rec, &service, RollingQuery(world, day), ServeStrategy::kGuided,
              &scratch, "serve.rolling");
    const double latency = SecondsSince(t0);
    pass.allocs += probe.Count();
    ok &= reply.result->completeness.integration_converged;

    pass.latency_s.push_back(latency);
    pass.busy_s += latency;
    pass.records += feed.size();
    ++pass.attempted;
    pass.failed += ok ? 0 : 1;
    pass.counts.AddQuery(*reply.result);
    const std::vector<AtypicalCluster>& installed =
        serving->staging_forest()->MicrosOfDay(day);
    digest.Fold(installed);
    digest.Fold(reply.result->clusters);
    if (day_checks != nullptr && !installed.empty()) {
      // Finalize numbers a day's micro-clusters consecutively, in order.
      Digest installed_digest;
      installed_digest.Fold(installed);
      day_checks->push_back(DayCheck{day, cycle.validated(),
                                     installed_digest.value(),
                                     installed.front().id});
    }
  }
  pass.span_end = rec->size();
  pass.wall_s = SecondsSince(pass_start);
  Counts counts = cycle.counts();
  counts.Add(pass.counts);
  pass.counts = counts;
  const auto snapshot = serving->AcquireSnapshot();
  pass.model_bytes = snapshot->forest->ByteSize() + snapshot->cube->ByteSize();
  pass.digest = digest.value();
  return pass;
}

PassResult RunQueryPass(State* state, SpanRecorder* rec, uint32_t* op) {
  PassResult pass;
  const int64_t pass_start = NowNs();
  pass.span_begin = rec->size();
  Digest digest;
  for (size_t i = 0; i < state->queries.size(); ++i) {
    rec->set_op(++*op);
    const atypical::util::AllocProbe probe;
    const int64_t t0 = NowNs();
    const ServeReply reply =
        Serve(rec, state->service.get(), state->queries[i],
              state->strategies[i], &state->scratch, "serve.query");
    const double latency = SecondsSince(t0);
    pass.allocs += probe.Count();
    pass.latency_s.push_back(latency);
    pass.busy_s += latency;
    ++pass.attempted;
    pass.failed += reply.result->completeness.integration_converged ? 0 : 1;
    pass.counts.AddQuery(*reply.result);
    digest.Fold(reply.result->clusters);
  }
  pass.span_end = rec->size();
  pass.wall_s = SecondsSince(pass_start);
  const auto snapshot = state->serving->AcquireSnapshot();
  pass.model_bytes = snapshot->forest->ByteSize() + snapshot->cube->ByteSize();
  pass.digest = digest.value();
  return pass;
}

// ---- report ----

class JsonObject {
 public:
  void Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t v) { Raw(key, std::to_string(v)); }
  void Str(const std::string& key, const std::string& v) {
    Raw(key, "\"" + v + "\"");
  }
  void Bool(const std::string& key, bool v) { Raw(key, v ? "true" : "false"); }
  void Raw(const std::string& key, const std::string& json) {
    if (!body_.empty()) body_ += ',';
    body_.append("\"").append(key).append("\":").append(json);
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage;
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

double Ratio(uint64_t num, uint64_t den) {
  return den == 0 ? 0.0 : static_cast<double>(num) / static_cast<double>(den);
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

// Latencies and busy time pooled over passes.
struct Pooled {
  std::vector<double> latency_s;  // sorted
  double busy_s = 0.0;
  uint64_t ops = 0;
  uint64_t records = 0;
  uint64_t allocs = 0;
};

Pooled Pool(const std::vector<const PassResult*>& passes) {
  Pooled pooled;
  for (const PassResult* p : passes) {
    pooled.latency_s.insert(pooled.latency_s.end(), p->latency_s.begin(),
                            p->latency_s.end());
    pooled.busy_s += p->busy_s;
    pooled.ops += p->attempted;
    pooled.records += p->records;
    pooled.allocs += p->allocs;
  }
  std::sort(pooled.latency_s.begin(), pooled.latency_s.end());
  return pooled;
}

// The layer time metrics over one span range that took `wall_s`.  The self
// times (ingest; integration accept, and finalize with the integrator's
// Reset; forest; cube; publish; serve overhead; query prepare and
// integrate) and other_s add up to `wall_s`.
std::map<std::string, double> LayerTimes(const SpanRecorder::Summary& s,
                                         double wall_s) {
  auto self = [&s](const char* layer) {
    const auto it = s.layer_self_s.find(layer);
    return it == s.layer_self_s.end() ? 0.0 : it->second;
  };
  auto total = [&s](const char* name) {
    const auto it = s.name_total_s.find(name);
    return it == s.name_total_s.end() ? 0.0 : it->second;
  };
  return {
      {"ingest.self_s", self("ingest")},
      {"integration.accept_s", total("integration.accept")},
      {"integration.finalize_s",
       total("integration.finalize") + total("integration.reset")},
      {"forest.install_s", self("forest")},
      {"cube.merge_s", self("cube")},
      {"serve.publish_s", total("serve.publish")},
      {"serve.overhead_s", self("serve") - total("serve.publish")},
      {"query.rolling_s", total("serve.rolling")},
      {"query.prepare_s", total("query.prepare")},
      {"query.integrate_s", total("query.integrate")},
      {"other_s", wall_s - s.covered_s},
  };
}

// Durations of the spans named `name` in [first, last).
void SpanSeconds(const SpanRecorder& rec, const char* name, size_t first,
                 size_t last, std::vector<double>* out) {
  for (size_t i = first; i < last; ++i) {
    const Span& s = rec.spans()[i];
    if (std::strcmp(s.name, name) == 0) {
      out->push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
    }
  }
}

// Per-layer metrics of the traced run.  Times cover the model build plus
// the median traced pass (median per metric); counts cover the build plus
// one pass, and repeat exactly for one seed.
std::string LayerReport(const SpanRecorder& rec, const State& state,
                        const std::vector<PassResult>& passes) {
  std::vector<const PassResult*> traced, untraced;
  for (const PassResult& p : passes) {
    (p.traced ? traced : untraced).push_back(&p);
  }
  JsonObject layers;

  std::map<std::string, std::vector<double>> per_pass;
  for (const PassResult* p : traced) {
    for (const auto& [name, seconds] :
         LayerTimes(rec.Summarize(p->span_begin, p->span_end), p->wall_s)) {
      per_pass[name].push_back(seconds);
    }
  }
  for (const auto& [name, seconds] :
       LayerTimes(rec.Summarize(state.build_span_begin, state.build_span_end),
                  state.build_wall_s)) {
    layers.Num(name, seconds + Median(per_pass[name]));
  }

  // Publish time per epoch: the build's publish and the median traced
  // pass's, as a p95.
  std::vector<const PassResult*> by_wall = traced;
  std::sort(by_wall.begin(), by_wall.end(),
            [](const PassResult* a, const PassResult* b) {
              return a->wall_s < b->wall_s;
            });
  const PassResult* median_pass = by_wall[by_wall.size() / 2];
  std::vector<double> publish_s;
  SpanSeconds(rec, "serve.publish", state.build_span_begin,
              state.build_span_end, &publish_s);
  SpanSeconds(rec, "serve.publish", median_pass->span_begin,
              median_pass->span_end, &publish_s);
  std::sort(publish_s.begin(), publish_s.end());
  layers.Num("serve.publish_p95_s", Percentile(publish_s, 0.95));

  Counts counts = state.build_counts;
  counts.Add(passes.front().counts);
  const uint64_t queries = counts.queries;
  layers.Int("ingest.records_in", counts.records_in);
  layers.Int("ingest.quarantined", counts.quarantined);
  layers.Int("ingest.reordered", counts.reordered);
  layers.Int("integration.online_merges", counts.online_merges);
  layers.Int("integration.similarity_checks", counts.online_similarity_checks);
  layers.Num("query.micros_in_range", Ratio(counts.micros_in_range, queries));
  layers.Num("query.inputs", Ratio(counts.inputs, queries));
  layers.Num("query.keep_ratio", Ratio(counts.inputs, counts.micros_in_range));
  layers.Num("query.red_zones", Ratio(counts.red_zones, queries));
  layers.Num("query.similarity_checks",
             Ratio(counts.similarity_checks, queries));
  layers.Num("query.merges", Ratio(counts.merges, queries));
  layers.Num("query.exact_scans", Ratio(counts.exact_scans, queries));
  layers.Num("query.pruned_scans", Ratio(counts.pruned_scans, queries));
  layers.Num("query.prune_ratio",
             Ratio(counts.pruned_scans,
                   counts.exact_scans + counts.pruned_scans));
  layers.Num("query.clusters_out", Ratio(counts.clusters_out, queries));

  // Allocations per op come from the untraced passes: in a traced one the
  // recorder's own buffer growth would count.  Tracing overhead is the
  // traced passes' timings minus the untraced ones'.
  const Pooled on = Pool(traced);
  const Pooled off = Pool(untraced);
  layers.Num("allocs_per_op", Ratio(off.allocs, off.ops));
  layers.Num("trace.overhead_p50_ms",
             (Percentile(on.latency_s, 0.5) - Percentile(off.latency_s, 0.5)) *
                 1e3);
  layers.Num("trace.overhead_share",
             (on.busy_s / static_cast<double>(on.ops)) /
                     (off.busy_s / static_cast<double>(off.ops)) -
                 1.0);
  return layers.str();
}

int Run(const Config& config, int64_t process_start_ns) {
  const Sizes sizes = SizesFor(config);
  SpanRecorder rec;
  std::vector<std::string> problems;

  // Set-up, several times: setup_s is the median.  The first one counts
  // from process start.
  std::vector<double> setup_s;
  std::unique_ptr<State> state;
  const int reps = config.trace ? 1 : kSetupReps;
  for (int rep = 0; rep < reps; ++rep) {
    state.reset();
    const int64_t start = rep == 0 ? process_start_ns : NowNs();
    rec.set_enabled(config.trace);
    state = SetUp(config, sizes, &rec);
    rec.set_enabled(false);
    setup_s.push_back(SecondsSince(start));
  }
  if (!state->build_ok) problems.push_back("model build: an op failed");

  // The timed loop.
  const bool ingest = config.workload == WorkloadKind::kIngestLive;
  std::vector<PassResult> passes;
  std::vector<DayCheck> day_checks;
  uint32_t op = 0;
  const int64_t loop_start = NowNs();
  while (passes.size() < (config.trace ? 2u : 1u) ||
         SecondsSince(loop_start) < config.seconds) {
    const bool traced = config.trace && passes.size() % 2 == 1;
    rec.set_enabled(traced);
    PassResult pass =
        ingest ? RunIngestPass(state.get(), &rec, &op,
                               passes.empty() ? &day_checks : nullptr)
               : RunQueryPass(state.get(), &rec, &op);
    rec.set_enabled(false);
    pass.traced = traced;
    passes.push_back(std::move(pass));
  }

  // Checks (not timed).  Every pass returns the same answers and counts.
  const uint64_t digest =
      ingest ? passes.front().digest : state->warm_digest;
  std::vector<const PassResult*> all;
  uint64_t failed = 0;
  bool same_answers = true, same_counts = true;
  for (const PassResult& p : passes) {
    all.push_back(&p);
    failed += p.failed;
    same_answers &= p.digest == digest;
    same_counts &= p.counts == passes.front().counts;
  }
  if (!same_answers) problems.push_back("answers differ between passes");
  if (!same_counts) problems.push_back("counts differ between passes");
  if (ingest) {
    const atypical::Workload& world = *state->world;
    for (const DayCheck& check : day_checks) {
      atypical::ClusterIdGenerator ids(check.first_id);
      Digest batch;
      batch.Fold(atypical::RetrieveMicroClusters(
          check.validated, *world.sensors, world.gen_config.time_grid,
          state->serving->staging_forest()->params().retrieval, &ids));
      if (batch.value() != check.installed_digest) {
        problems.push_back("day " + std::to_string(check.day) +
                           ": streamed micro-clusters differ from batch");
      }
    }
  } else {
    // Serving contract: every reply equals an uncached engine run on the
    // same snapshot.
    const auto snapshot = state->serving->AcquireSnapshot();
    Digest direct;
    for (size_t i = 0; i < state->queries.size(); ++i) {
      direct.Fold(snapshot->engine
                      .Run(state->queries[i], atypical::serve::ToQueryStrategy(
                                                  state->strategies[i]))
                      .clusters);
    }
    if (direct.value() != digest) {
      problems.push_back("served answers differ from direct engine runs");
    }
  }

  // End-to-end metrics over every pass.  A traced run computes them too,
  // but run.py prints only its layer metrics.
  const Pooled pooled = Pool(all);
  const size_t n = pooled.latency_s.size();
  auto beyond = [n](double p) {
    return n - static_cast<size_t>(std::ceil(p * static_cast<double>(n)));
  };

  JsonObject e2e;
  e2e.Num("setup_s", Median(setup_s));
  e2e.Num("throughput",
          static_cast<double>(ingest ? pooled.records : pooled.ops) /
              pooled.busy_s);
  e2e.Num("p50_ms", Percentile(pooled.latency_s, 0.50) * 1e3);
  e2e.Num("p95_ms", Percentile(pooled.latency_s, 0.95) * 1e3);
  e2e.Num("p99_ms", Percentile(pooled.latency_s, 0.99) * 1e3);
  e2e.Num("peak_rss_mb", PeakRssMb());
  e2e.Num("model_mb", static_cast<double>(passes.back().model_bytes) /
                          (1024.0 * 1024.0));
  e2e.Num("error_rate", Ratio(failed, pooled.ops));

  JsonObject samples;
  samples.Int("latency", n);
  samples.Int("beyond_p50", beyond(0.50));
  samples.Int("beyond_p95", beyond(0.95));
  samples.Int("beyond_p99", beyond(0.99));
  samples.Int("setup", setup_s.size());
  samples.Int("passes", passes.size());
  // Busy time per pass: how steady the machine was during the run.
  std::string pass_busy;
  for (const PassResult& p : passes) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6f", pass_busy.empty() ? "" : ",",
                  p.busy_s);
    pass_busy += buf;
  }

  std::string problems_json = "[";
  for (size_t i = 0; i < problems.size(); ++i) {
    problems_json += (i ? ",\"" : "\"") + problems[i] + "\"";
  }
  problems_json += "]";

  JsonObject report;
  report.Str("workload", config.workload_name);
  report.Int("seed", config.seed);
  report.Str("scale", config.tiny ? "tiny" : "small");
  report.Int("hw_threads", std::thread::hardware_concurrency());
  report.Bool("trace", config.trace);
  report.Bool("correct", problems.empty());
  report.Raw("problems", problems_json);
  report.Int("attempted", pooled.ops);
  report.Int("failed", failed);
  report.Str("digest", Hex(digest));
  report.Raw("e2e", e2e.str());
  report.Raw("samples", samples.str());
  report.Raw("pass_busy_s", "[" + pass_busy + "]");
  if (config.trace) report.Raw("layers", LayerReport(rec, *state, passes));
  std::printf("%s\n", report.str().c_str());

  if (config.trace && !config.trace_out.empty() &&
      !rec.WriteJsonLines(config.trace_out)) {
    std::fprintf(stderr, "cannot write trace to %s\n",
                 config.trace_out.c_str());
    return 1;
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: pipeline_bench --workload ingest_live|query_local|"
               "query_wide --seed N --seconds S --trace 0|1 "
               "[--scale small|tiny] [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const int64_t process_start = NowNs();
  Config config;
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      config.workload_name = value;
      have_workload = true;
      if (value == "ingest_live") {
        config.workload = WorkloadKind::kIngestLive;
      } else if (value == "query_local") {
        config.workload = WorkloadKind::kQueryLocal;
      } else if (value == "query_wide") {
        config.workload = WorkloadKind::kQueryWide;
      } else {
        return Usage();
      }
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      config.trace = value == "1";
    } else if (flag == "--scale") {
      if (value != "small" && value != "tiny") return Usage();
      config.tiny = value == "tiny";
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_workload || argc % 2 == 0) return Usage();
  return Run(config, process_start);
}
