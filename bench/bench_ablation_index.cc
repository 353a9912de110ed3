// Ablation: the spatio-temporal index in Algorithm 1 (Proposition 1).
//
// Proposition 1 claims O(N + n²) without an index and near-linear with one.
// This bench grows the record count and reports the product path (the
// window-ordered join over sensor-neighbour lists, core/streaming.h) next
// to the literal all-pairs reference of tests/retrieval_reference.h: times
// and neighbour checks.  The reference column should grow quadratically,
// the product one linearly.  Both must return the same events.
#include "analytics/report.h"
#include "bench/bench_util.h"
#include "core/event_retrieval.h"
#include "gen/workload.h"
#include "tests/retrieval_reference.h"
#include "util/logging.h"
#include "util/stopwatch.h"

int main() {
  using namespace atypical;
  bench::PrintHeader(
      "Ablation: spatio-temporal index (Proposition 1)",
      "event retrieval cost vs record count, product join vs all-pairs "
      "reference",
      "reference time grows ~n², product ~n");

  const auto workload = MakeWorkload(WorkloadScale::kSmall);
  const TimeGrid grid = workload->gen_config.time_grid;
  const RetrievalParams params = analytics::DefaultForestParams().retrieval;
  // One month of records, truncated to increasing prefixes.
  const std::vector<AtypicalRecord> all =
      workload->generator->GenerateMonthAtypical(0);

  Table table({"records", "product (ms)", "reference (ms)", "speedup",
               "product checks", "reference checks"});
  for (const size_t n : {1000ul, 2000ul, 4000ul, 8000ul, 16000ul}) {
    if (n > all.size()) break;
    const std::vector<AtypicalRecord> records(all.begin(), all.begin() + n);

    RetrievalStats product;
    Stopwatch t1;
    const auto events =
        RetrieveEvents(records, *workload->sensors, grid, params, &product);
    const double product_ms = t1.ElapsedMillis();

    size_t reference_checks = 0;
    Stopwatch t2;
    const auto expected = reference::RetrieveEvents(
        records, *workload->sensors, grid, params, &reference_checks);
    const double reference_ms = t2.ElapsedMillis();
    CHECK(events == expected) << "product and reference events differ at n="
                              << n;

    table.AddRow(
        {StrPrintf("%zu", n), StrPrintf("%.2f", product_ms),
         StrPrintf("%.2f", reference_ms),
         StrPrintf("%.0fx", reference_ms / std::max(product_ms, 1e-6)),
         StrPrintf("%zu", product.neighbor_checks),
         StrPrintf("%zu", reference_checks)});
  }
  bench::EmitTable("ablation_index", table);
  return 0;
}
