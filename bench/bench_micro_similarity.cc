// Microbench for the similarity fast path (DESIGN §11): how often does the
// signature/upper-bound stage answer ExceedsThreshold without an exact
// CommonSeverity scan, and what does that save in wall-clock?
//
// Three pair populations stress the three fast-path mechanisms:
//   dense      — bench_integration's seed shape (key space 48, 24 adds per
//                feature): overlapping spans, pruning must come from the
//                severity-mass bound;
//   localized  — contiguous per-cluster key spans scattered over a wide key
//                space: mostly disjoint signatures, pruning is nearly free;
//   skewed     — alternating 4-key and 512-key clusters: exact scans that do
//                run take the galloping intersection.
//
// Every fast verdict is CHECKed against the exact verdict in-loop, so a run
// that completes is itself a correctness witness.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "core/cluster.h"
#include "core/similarity.h"
#include "util/flags.h"
#include "util/random.h"

namespace atypical {
namespace {

constexpr BalanceFunction kAllBalanceFunctions[] = {
    BalanceFunction::kMax,           BalanceFunction::kMin,
    BalanceFunction::kArithmeticMean, BalanceFunction::kGeometricMean,
    BalanceFunction::kHarmonicMean,
};

struct Regime {
  const char* name;
  std::vector<AtypicalCluster> clusters;
};

AtypicalCluster MakeCluster(ClusterId id) {
  AtypicalCluster c;
  c.id = id;
  c.micro_ids = {id};
  return c;
}

// bench_integration's generator shape: dense key overlap, severities that
// keep most pairs well below δsim = 0.6 but force the bound to look at
// severity mass, not just spans.
Regime MakeDense(int count) {
  Rng rng(2024);
  Regime r{"dense", {}};
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c = MakeCluster(static_cast<ClusterId>(i + 1));
    for (int j = 0; j < 24; ++j) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{48})),
                    severity);
      c.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{48})),
                     severity);
    }
    r.clusters.push_back(std::move(c));
  }
  return r;
}

// Each cluster owns a contiguous 16-key span; spans are scattered over a
// 4096-key space so most pairs have disjoint signatures and prune before
// any per-entry work.
Regime MakeLocalized(int count) {
  Rng rng(7);
  Regime r{"localized", {}};
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c = MakeCluster(static_cast<ClusterId>(i + 1));
    const uint32_t base = static_cast<uint32_t>(rng.UniformInt(uint64_t{4080}));
    for (uint32_t j = 0; j < 16; ++j) {
      c.spatial.Add(base + j, rng.Uniform(0.5, 15.0));
      c.temporal.Add(base + j, rng.Uniform(0.5, 15.0));
    }
    r.clusters.push_back(std::move(c));
  }
  return r;
}

// Alternating tiny (4-key) and huge (512-key) clusters over a shared key
// space: the exact scans that survive the bound hit CommonSeverity's
// galloping branch (size ratio 128 ≥ the 16× skew factor).
Regime MakeSkewed(int count) {
  Rng rng(99);
  Regime r{"skewed", {}};
  for (int i = 0; i < count; ++i) {
    AtypicalCluster c = MakeCluster(static_cast<ClusterId>(i + 1));
    const int keys = (i % 2 == 0) ? 4 : 512;
    for (int j = 0; j < keys; ++j) {
      const double severity = rng.Uniform(0.5, 15.0);
      c.spatial.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{4096})),
                    severity);
      c.temporal.Add(static_cast<uint32_t>(rng.UniformInt(uint64_t{4096})),
                     severity);
    }
    r.clusters.push_back(std::move(c));
  }
  return r;
}

struct SweepResult {
  uint64_t pairs = 0;
  SimilarityScanStats stats;
  double fast_ms = 0.0;
  double exact_ms = 0.0;
};

// All-pairs ExceedsThreshold, exact path timed first, then the fast path
// with in-loop verdict equality CHECKs against the stored exact verdicts.
SweepResult SweepAllPairs(const std::vector<AtypicalCluster>& clusters,
                          BalanceFunction g, double delta_sim) {
  SweepResult result;
  std::vector<uint8_t> exact_verdicts;
  exact_verdicts.reserve(clusters.size() * (clusters.size() - 1) / 2);
  {
    bench::BenchTimer timer("micro_similarity.exact");
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        exact_verdicts.push_back(ExceedsThreshold(clusters[i], clusters[j], g,
                                                  delta_sim, nullptr,
                                                  /*use_fast_path=*/false)
                                     ? 1
                                     : 0);
      }
    }
    result.exact_ms = timer.StopMillis();
  }
  {
    bench::BenchTimer timer("micro_similarity.fast");
    size_t pair = 0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      for (size_t j = i + 1; j < clusters.size(); ++j) {
        const bool fast = ExceedsThreshold(clusters[i], clusters[j], g,
                                           delta_sim, &result.stats,
                                           /*use_fast_path=*/true);
        CHECK_EQ(fast, exact_verdicts[pair] != 0)
            << "fast path diverged: g=" << BalanceFunctionName(g)
            << " pair=" << i << "," << j;
        ++pair;
      }
    }
    result.fast_ms = timer.StopMillis();
  }
  result.pairs = exact_verdicts.size();
  return result;
}

}  // namespace
}  // namespace atypical

int main(int argc, char** argv) {
  using namespace atypical;
  FlagParser flags(argc, argv);
  const int clusters = static_cast<int>(flags.GetInt("clusters", 160));
  const double delta_sim = flags.GetDouble("delta-sim", 0.6);
  if (!flags.ok()) {
    std::fprintf(stderr, "%s\n", flags.error().c_str());
    return 2;
  }
  if (clusters < 2) {
    std::fprintf(stderr, "--clusters must be >= 2\n");
    return 2;
  }

  bench::PrintHeader(
      "bench_micro_similarity — Eq. 2-4 fast path",
      StrPrintf("all-pairs ExceedsThreshold, fast vs. exact, %d clusters, "
                "delta_sim=%.2f",
                clusters, delta_sim),
      "upper-bound pruning answers most verdicts without an exact scan; "
      "verdicts stay bit-identical (CHECKed per pair)");

  Regime regimes[] = {MakeDense(clusters), MakeLocalized(clusters),
                      MakeSkewed(clusters)};
  // Integration builds each cluster's sketch once, on first use, and reuses
  // it for every later pair; build them up front so the sweep times the
  // per-pair cost, not one-time setup.
  for (Regime& regime : regimes) {
    for (AtypicalCluster& c : regime.clusters) {
      c.spatial.EnsureSimilarityReady();
      c.temporal.EnsureSimilarityReady();
    }
  }

  SimilarityScanStats totals;
  bench::BenchSummary summary("bench_micro_similarity");
  Table table({"regime", "g", "pairs", "exact scans", "pruned", "pruned %",
               "fast (ms)", "exact (ms)", "speedup"});
  for (const Regime& regime : regimes) {
    for (const BalanceFunction g : kAllBalanceFunctions) {
      const SweepResult r = SweepAllPairs(regime.clusters, g, delta_sim);
      totals += r.stats;
      summary.AddSample(
          StrPrintf("%s.%s.fast", regime.name, BalanceFunctionName(g)),
          r.fast_ms / 1e3);
      summary.AddSample(
          StrPrintf("%s.%s.exact", regime.name, BalanceFunctionName(g)),
          r.exact_ms / 1e3);
      const uint64_t decided = r.stats.exact_scans + r.stats.pruned_scans;
      table.AddRow(
          {regime.name, BalanceFunctionName(g), StrPrintf("%llu", (unsigned long long)r.pairs),
           StrPrintf("%llu", (unsigned long long)r.stats.exact_scans),
           StrPrintf("%llu", (unsigned long long)r.stats.pruned_scans),
           StrPrintf("%.1f%%", decided == 0
                                   ? 0.0
                                   : 100.0 * (double)r.stats.pruned_scans /
                                         (double)decided),
           StrPrintf("%.2f", r.fast_ms), StrPrintf("%.2f", r.exact_ms),
           StrPrintf("%.2fx", r.exact_ms / std::max(r.fast_ms, 1e-6))});
    }
  }
  summary.AddCounter("similarity.exact_scans", totals.exact_scans);
  summary.AddCounter("similarity.pruned", totals.pruned_scans);
  bench::EmitTable("bench_micro_similarity", table);
  summary.WriteJson();

  // Publish the sweep's accounting under the pipeline counter names so a
  // --stats=json dump of this bench carries the same schema CI checks on
  // the drivers.
  obs::Registry()->GetCounter("similarity.exact_scans")
      ->Add(totals.exact_scans);
  obs::Registry()->GetCounter("similarity.pruned")->Add(totals.pruned_scans);
  return bench::DumpStatsIfRequested(flags);
}
