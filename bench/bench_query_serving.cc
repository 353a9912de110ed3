// Closed-loop concurrent query serving throughput (DESIGN §16).
//
// N worker threads — each with its own warm QueryScratch, the serving idiom
// — replay a small repeating Q(W, T) pool through one shared QueryService
// (snapshot isolation + result cache, Gui strategy) while a
// writer thread keeps staging new days and publishing epochs.  Workers
// optionally pace to a target aggregate QPS; unthrottled (the default) the
// bench measures saturation throughput.  Latency lands in the same
// serve.request_seconds obs histogram production serving uses, so p50/p99
// come from the pipeline's own instrumentation; every 64th reply is
// re-checked bit-identical against an uncached engine run on its snapshot,
// keeping the closed loop honest.
//
// Flags:
//   --threads=N            worker threads (default 4)
//   --duration-seconds=S   measurement window (default 2.0)
//   --qps=Q                target aggregate QPS, 0 = unthrottled (default 0)
//   --queries=P            distinct queries in the pool (default 12)
//   --cache-entries=E      result-cache capacity, 0 disables (default 1024)
//   --publish-every-ms=M   writer publish cadence, 0 = no writer (default 250)
//   --months=K             synthetic months (default 2)
//   --stats[=text|json] [--stats-out FILE]
#include <atomic>
#include <chrono>
#include <map>
#include <memory>
#include <thread>
#include <vector>

#include "analytics/report.h"
#include "bench/bench_util.h"
#include "serve/query_service.h"
#include "util/stopwatch.h"

namespace atypical {
namespace {

struct WorkerTotals {
  uint64_t requests = 0;
  uint64_t cache_hits = 0;
  uint64_t identity_checks = 0;
  uint64_t identity_failures = 0;
};

// Deep answer equality for the spot checks (timings excluded by design).
bool SameAnswer(const QueryResult& a, const QueryResult& b) {
  if (a.threshold != b.threshold || a.clusters.size() != b.clusters.size()) {
    return false;
  }
  for (size_t i = 0; i < a.clusters.size(); ++i) {
    if (a.clusters[i].id != b.clusters[i].id ||
        a.clusters[i].micro_ids != b.clusters[i].micro_ids ||
        !(a.clusters[i].spatial == b.clusters[i].spatial)) {
      return false;
    }
  }
  return true;
}

int Main(int argc, char** argv) {
  FlagParser flags(argc, argv);
  const int threads = static_cast<int>(flags.GetInt("threads", 4));
  const double duration_seconds = flags.GetDouble("duration-seconds", 2.0);
  const double target_qps = flags.GetDouble("qps", 0.0);
  const int pool_size = static_cast<int>(flags.GetInt("queries", 12));
  const size_t cache_entries =
      static_cast<size_t>(flags.GetInt("cache-entries", 1024));
  const double publish_every_ms = flags.GetDouble("publish-every-ms", 250.0);
  const int months = static_cast<int>(flags.GetInt("months", 2));
  CHECK(flags.ok()) << flags.error();
  CHECK_GT(threads, 0);
  CHECK_GT(pool_size, 0);

  bench::PrintHeader(
      "query serving", "closed-loop concurrent serving throughput",
      "flat p50 under load; hit rate grows with pool reuse; p99 bounded by "
      "publish-induced misses");

  const std::unique_ptr<analytics::ExperimentContext> ctx =
      analytics::BuildContext(WorkloadScale::kTiny, months,
                              analytics::DefaultForestParams(), 47);

  serve::ServingForest serving(&ctx->network(), &ctx->regions(),
                               ctx->time_grid(), ctx->forest_params,
                               analytics::DefaultEngineOptions());
  serving.staging_cube()->MergeFrom(ctx->atypical_cube);
  // Serve the first month from the start; the writer drips the rest in.
  serving.staging_forest()->AddRecords(ctx->monthly_atypical[0]);
  serving.PublishSnapshot();

  serve::ServeOptions options;
  options.cache_entries = cache_entries;
  serve::QueryService service(&serving, options);

  // The repeating pool: whole-area queries over shifted windows, so repeats
  // hit the cache and distinct days exercise different integration sizes.
  const int total_days = months * ctx->days_per_month();
  std::vector<AnalyticalQuery> pool;
  pool.reserve(static_cast<size_t>(pool_size));
  for (int i = 0; i < pool_size; ++i) {
    AnalyticalQuery query = ctx->WholeAreaQuery(total_days);
    const int first = i % std::max(1, total_days - 6);
    query.days = DayRange{first, first + 6};
    pool.push_back(query);
  }

  std::atomic<bool> stop{false};
  std::vector<WorkerTotals> totals(static_cast<size_t>(threads));

  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  const double per_worker_interval =
      target_qps > 0 ? static_cast<double>(threads) / target_qps : 0.0;
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      WorkerTotals& mine = totals[static_cast<size_t>(w)];
      QueryScratch scratch;
      Stopwatch pace;
      double next_send = 0.0;
      for (uint64_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
        if (per_worker_interval > 0) {
          // Open-ish pacing: send at fixed intervals, never ahead of plan.
          while (pace.ElapsedSeconds() < next_send &&
                 !stop.load(std::memory_order_relaxed)) {
            std::this_thread::yield();
          }
          next_send += per_worker_interval;
        }
        const AnalyticalQuery& query =
            pool[(static_cast<uint64_t>(w) + i) % pool.size()];
        const serve::ServeReply reply =
            service.ServeQuery(query, serve::ServeStrategy::kGuided, &scratch);
        ++mine.requests;
        if (reply.cache_hit) ++mine.cache_hits;
        if (i % 64 == 0) {
          // The closed loop's honesty check: served answer == uncached
          // single-threaded run on the same snapshot.
          ++mine.identity_checks;
          const QueryResult direct =
              reply.snapshot->engine.Run(query, QueryStrategy::kGuided,
                                         &scratch);
          if (!SameAnswer(*reply.result, direct)) ++mine.identity_failures;
        }
      }
    });
  }

  std::thread writer([&] {
    if (publish_every_ms <= 0) return;
    // Drip the remaining months' records in day-sized batches, one publish
    // per cadence tick; once data runs out the writer goes quiet (steady
    // state: pure cache serving).
    std::map<int, std::vector<AtypicalRecord>> pending;
    for (int m = 1; m < months; ++m) {
      for (const AtypicalRecord& r : ctx->monthly_atypical[static_cast<size_t>(m)]) {
        pending[ctx->time_grid().DayOfWindow(r.window)].push_back(r);
      }
    }
    auto it = pending.begin();
    while (!stop.load(std::memory_order_relaxed) && it != pending.end()) {
      std::this_thread::sleep_for(std::chrono::duration<double, std::milli>(
          publish_every_ms));
      serving.staging_forest()->AddDay(it->first, it->second);
      serving.PublishSnapshot();
      ++it;
    }
  });

  Stopwatch wall;
  std::this_thread::sleep_for(
      std::chrono::duration<double>(duration_seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& t : workers) t.join();
  writer.join();
  const double elapsed = wall.ElapsedSeconds();

  WorkerTotals sum;
  for (const WorkerTotals& t : totals) {
    sum.requests += t.requests;
    sum.cache_hits += t.cache_hits;
    sum.identity_checks += t.identity_checks;
    sum.identity_failures += t.identity_failures;
  }
  CHECK_EQ(sum.identity_failures, 0u)
      << "served answers diverged from uncached engine runs";
  CHECK_GT(sum.requests, 0u);

  obs::Histogram* const latency =
      obs::Registry()->GetHistogram("serve.request_seconds");
  const double p50 = latency->Quantile(0.50);
  const double p99 = latency->Quantile(0.99);
  const double qps = static_cast<double>(sum.requests) / elapsed;
  const serve::QueryResultCache::CacheTotals cache = service.cache_totals();

  Table table({"threads", "requests", "qps", "p50 (ms)", "p99 (ms)",
               "hit rate (%)", "epochs"});
  table.AddRow({StrPrintf("%d", threads), StrPrintf("%llu",
                    (unsigned long long)sum.requests),
                StrPrintf("%.0f", qps), StrPrintf("%.3f", p50 * 1e3),
                StrPrintf("%.3f", p99 * 1e3),
                StrPrintf("%.1f", cache.hit_rate_percent),
                StrPrintf("%llu", (unsigned long long)serving.current_epoch())});
  bench::EmitTable("bench_query_serving", table);

  bench::BenchSummary summary("bench_query_serving");
  summary.AddSample("request_p50", p50);
  summary.AddSample("request_p99", p99);
  summary.AddCounter("requests", sum.requests);
  summary.AddCounter("qps", static_cast<uint64_t>(qps));
  summary.AddCounter("threads", static_cast<uint64_t>(threads));
  summary.AddCounter("cache_hits", cache.hits);
  summary.AddCounter("cache_misses", cache.misses);
  summary.AddCounter("cache_evictions", cache.evictions);
  summary.AddCounter("cache_invalidations", cache.invalidations);
  summary.AddCounter("hit_rate_percent",
                     static_cast<uint64_t>(cache.hit_rate_percent));
  summary.AddCounter("epochs_published", serving.current_epoch());
  summary.AddCounter("identity_checks", sum.identity_checks);
  summary.WriteJson();

  return bench::DumpStatsIfRequested(flags);
}

}  // namespace
}  // namespace atypical

int main(int argc, char** argv) { return atypical::Main(argc, argv); }
