// Algorithm 3 (core/integration.h) on a scan-bound population.
//
// The greedy fixpoint's candidate similarity scans dominate integration
// cost.  Rows report the median serial IntegrateClusters time next to the
// pairs evaluated (each an exact Similarity() verdict) and the merges;
// interpret the times against the `hw_threads` column.
#include <thread>

#include "bench/bench_util.h"
#include "core/integration.h"
#include "util/random.h"

namespace atypical {
namespace {

// Scan-heavy micro-cluster population: a small key space keeps candidate
// lists long and δsim = 0.7 keeps merges rare, so nearly all time goes to
// the pairwise similarity scans.  (δsim = 0.6, used here
// before, sits just under this population's snowball point: one merge makes
// the winner similar enough to absorb everything, the run collapses to a
// single macro-cluster, and the bench measures merge bookkeeping instead of
// the candidate scanning it claims to — at 0.7 the same population yields
// ~n²/2 scans and almost no merges, the shape this bench is built for.)
std::vector<AtypicalCluster> MakeMicros(int count, uint32_t key_space,
                                        int keys_per_cluster, uint64_t seed,
                                        ClusterIdGenerator* ids) {
  Rng rng(seed);
  std::vector<AtypicalCluster> out;
  out.reserve(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c;
    c.id = ids->Next();
    c.micro_ids = {c.id};
    for (int j = 0; j < keys_per_cluster; ++j) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
                    severity);
      c.temporal.Add(
          static_cast<uint32_t>(rng.UniformInt(uint64_t{key_space})),
          severity);
    }
    out.push_back(std::move(c));
  }
  return out;
}

double RunSerial(const std::vector<AtypicalCluster>& micros,
                 const IntegrationParams& params,
                 IntegrationStats* out_stats) {
  ClusterIdGenerator ids(1u << 20);
  bench::BenchTimer timer("integration.serial");
  (void)IntegrateClusters(micros, params, &ids, out_stats);  // timed only
  return timer.StopMillis();
}

}  // namespace
}  // namespace atypical

int main(int argc, char** argv) {
  using namespace atypical;
  FlagParser flags(argc, argv);
  // --clusters N replaces the {500, 1000, 2000} sweep with a single row —
  // CI's bench-smoke job uses it to keep the run tiny.
  const int64_t clusters_override = flags.GetInt("clusters", 0);
  // Each timing is repeated --reps times; the table and summary report the
  // median, the summary also keeps the raw samples.
  const int reps = static_cast<int>(flags.GetInt("reps", 3));
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (reps < 1) {
    std::fprintf(stderr, "--reps must be >= 1\n");
    return 2;
  }
  std::vector<int> row_sizes = {500, 1000, 2000};
  if (clusters_override > 0) {
    row_sizes = {static_cast<int>(clusters_override)};
  }

  const unsigned hw = std::thread::hardware_concurrency();
  bench::PrintHeader(
      "bench_integration — Algorithm 3",
      StrPrintf("greedy fixpoint on scan-bound inputs (hardware threads: %u)",
                hw),
      "many pairs evaluated, few merges: similarity verdicts dominate");

  IntegrationParams base;
  base.delta_sim = 0.7;  // scan-bound: see MakeMicros comment

  bench::BenchSummary summary("bench_integration");
  Table table({"clusters", "hw_threads", "serial (ms)", "pairs evaluated",
               "merges"});
  for (const int n : row_sizes) {
    ClusterIdGenerator ids(1);
    const auto micros = MakeMicros(n, /*key_space=*/48,
                                   /*keys_per_cluster=*/24,
                                   /*seed=*/1234 + static_cast<uint64_t>(n),
                                   &ids);
    IntegrationStats serial_stats;
    std::vector<double> serial_s;
    for (int rep = 0; rep < reps; ++rep) {
      serial_s.push_back(RunSerial(micros, base, &serial_stats) / 1e3);
    }
    for (const double s : serial_s) {
      summary.AddSample(StrPrintf("serial.n=%d", n), s);
    }
    const double serial_ms = bench::MedianSeconds(serial_s) * 1e3;
    table.AddRow({StrPrintf("%d", n), StrPrintf("%u", hw),
                  StrPrintf("%.1f", serial_ms),
                  StrPrintf("%zu", serial_stats.similarity_checks),
                  StrPrintf("%zu", serial_stats.merges)});
    summary.AddCounter(StrPrintf("similarity_checks.n=%d", n),
                       serial_stats.similarity_checks);
    summary.AddCounter(StrPrintf("merges.n=%d", n), serial_stats.merges);
  }
  summary.AddCounter("hw_threads", hw);
  summary.AddCounter("reps", static_cast<uint64_t>(reps));
  bench::EmitTable("bench_integration", table);
  summary.WriteJson();
  return bench::DumpStatsIfRequested(flags);
}
