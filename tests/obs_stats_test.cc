// Metrics registry + snapshot exporters.  The golden strings here are the
// compatibility contract for `atypical_cli --stats=json` (and the CI schema
// check); change them only together with kStatsSchemaVersion.
#include "obs/stats.h"

#include <gtest/gtest.h>

#include <cmath>

#include "obs/snapshot.h"
#include "obs/trace.h"

namespace atypical {
namespace obs {
namespace {

TEST(BucketLayoutTest, UpperBoundsDouble) {
  const BucketLayout latency = BucketLayout::Latency();
  EXPECT_DOUBLE_EQ(latency.UpperBound(0), 1e-6);
  EXPECT_DOUBLE_EQ(latency.UpperBound(1), 2e-6);
  EXPECT_DOUBLE_EQ(latency.UpperBound(20), 1.048576);
  EXPECT_TRUE(std::isinf(latency.UpperBound(latency.num_buckets)));
  const BucketLayout counts = BucketLayout::Counts();
  EXPECT_DOUBLE_EQ(counts.UpperBound(0), 1.0);
  EXPECT_DOUBLE_EQ(counts.UpperBound(10), 1024.0);
}

TEST(BucketLayoutTest, BucketForRoundTrips) {
  const BucketLayout layout = BucketLayout::Latency();
  for (int i = 0; i < layout.num_buckets; ++i) {
    EXPECT_EQ(layout.BucketFor(layout.UpperBound(i)), i) << i;
  }
  EXPECT_EQ(layout.BucketFor(0.0), 0);
  EXPECT_EQ(layout.BucketFor(1.0), 20);  // 2^19 µs < 1s <= 2^20 µs
  EXPECT_EQ(layout.BucketFor(1e12), layout.num_buckets);  // overflow
}

// The empty snapshot must render a valid (empty) JSON document.
TEST(SnapshotTest, EmptySnapshotGoldens) {
  const StatsSnapshot snapshot;
  EXPECT_TRUE(snapshot.empty());
  EXPECT_EQ(snapshot.ToText(),
            "== pipeline stats ==\n"
            "(no metrics recorded)\n");
  EXPECT_EQ(snapshot.ToJson(),
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"counters\": {},\n"
            "  \"gauges\": {},\n"
            "  \"histograms\": {}\n"
            "}\n");
  EXPECT_EQ(snapshot.CounterValue("anything"), 0u);
}

TEST(TraceSpanTest, StopIsIdempotentAndClockAlwaysRuns) {
  StatsRegistry registry;
  Histogram* h = registry.GetHistogram("span.seconds");
  TraceSpan span(h);
  const double first = span.Stop();
  EXPECT_GE(first, 0.0);
  EXPECT_EQ(span.Stop(), first);  // later calls return the same reading
  EXPECT_EQ(h->count(), 1u);  // destructor must not double-record
  TraceSpan unattached(nullptr);
  EXPECT_GE(unattached.Stop(), 0.0);
}

TEST(CounterTest, AddAccumulates) {
  StatsRegistry registry;
  Counter* c = registry.GetCounter("c");
  c->Increment();
  c->Add(41);
  EXPECT_EQ(c->value(), 42u);
}

TEST(GaugeTest, SetAndAddAreSigned) {
  StatsRegistry registry;
  Gauge* g = registry.GetGauge("g");
  g->Set(-5);
  g->Add(2);
  EXPECT_EQ(g->value(), -3);
}

TEST(StatsRegistryTest, GetOrCreateReturnsStablePointers) {
  StatsRegistry registry;
  EXPECT_EQ(registry.GetCounter("a"), registry.GetCounter("a"));
  EXPECT_EQ(registry.GetGauge("a"), registry.GetGauge("a"));
  EXPECT_EQ(registry.GetHistogram("a"), registry.GetHistogram("a"));
  EXPECT_NE(registry.GetCounter("a"), registry.GetCounter("b"));
}

TEST(StatsRegistryDeathTest, HistogramLayoutConflictDies) {
  StatsRegistry registry;
  registry.GetHistogram("h", BucketLayout::Latency());
  EXPECT_DEATH(registry.GetHistogram("h", BucketLayout::Counts()), "layout");
}

TEST(StatsRegistryTest, ResetZeroesButKeepsRegistrations) {
  StatsRegistry registry;
  Counter* c = registry.GetCounter("c");
  Histogram* h = registry.GetHistogram("h");
  c->Add(9);
  h->Record(1.0);
  registry.Reset();
  EXPECT_EQ(c->value(), 0u);
  EXPECT_EQ(h->count(), 0u);
  EXPECT_DOUBLE_EQ(h->sum(), 0.0);
  EXPECT_EQ(registry.GetCounter("c"), c);  // same object, still registered
}

TEST(HistogramTest, RecordTracksCountSumMax) {
  StatsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  h->Record(0.5);
  h->Record(1.5);
  h->Record(0.25);
  EXPECT_EQ(h->count(), 3u);
  EXPECT_DOUBLE_EQ(h->sum(), 2.25);
  EXPECT_DOUBLE_EQ(h->max(), 1.5);
}

TEST(HistogramTest, QuantileInterpolatesWithinBucket) {
  StatsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.0);  // no samples
  h->Record(1.0);  // lands in bucket 20: (0.524288, 1.048576]
  EXPECT_DOUBLE_EQ(h->Quantile(0.5), 0.786432);
  EXPECT_DOUBLE_EQ(h->Quantile(0.9), 0.9961472);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 1.04333312);
}

TEST(HistogramTest, OverflowBucketReportsObservedMax) {
  StatsRegistry registry;
  Histogram* h = registry.GetHistogram("h");
  h->Record(1e9);  // past the last Latency() bound (~537s)
  EXPECT_EQ(h->bucket_count(h->layout().num_buckets), 1u);
  EXPECT_DOUBLE_EQ(h->Quantile(0.99), 1e9);
}

StatsSnapshot DemoSnapshot() {
  StatsRegistry registry;
  registry.GetCounter("demo.events")->Add(3);
  registry.GetGauge("demo.depth")->Set(-2);
  registry.GetHistogram("demo.seconds")->Record(1.0);
  return registry.Snapshot();
}

TEST(SnapshotTest, TextExportGolden) {
  EXPECT_EQ(DemoSnapshot().ToText(),
            "== pipeline stats ==\n"
            "counters:\n"
            "  demo.events  3\n"
            "gauges:\n"
            "  demo.depth   -2\n"
            "histograms:\n"
            "  demo.seconds count=1 sum=1 p50=0.786432 p90=0.9961472 "
            "p99=1.04333312 max=1\n");
}

TEST(SnapshotTest, JsonExportGolden) {
  EXPECT_EQ(DemoSnapshot().ToJson(),
            "{\n"
            "  \"schema_version\": 1,\n"
            "  \"counters\": {\n"
            "    \"demo.events\": 3\n"
            "  },\n"
            "  \"gauges\": {\n"
            "    \"demo.depth\": -2\n"
            "  },\n"
            "  \"histograms\": {\n"
            "    \"demo.seconds\": {\"count\": 1, \"sum\": 1, \"max\": 1, "
            "\"p50\": 0.786432, \"p90\": 0.9961472, \"p99\": 1.04333312, "
            "\"buckets\": [{\"le\": 1.048576, \"count\": 1}]}\n"
            "  }\n"
            "}\n");
}

TEST(SnapshotTest, SortedByNameAndOnlyPopulatedBuckets) {
  StatsRegistry registry;
  registry.GetCounter("z.last")->Increment();
  registry.GetCounter("a.first")->Increment();
  Histogram* h = registry.GetHistogram("h");
  h->Record(1e-6);  // bucket 0
  h->Record(1.0);   // bucket 20
  const StatsSnapshot snapshot = registry.Snapshot();
  ASSERT_EQ(snapshot.counters.size(), 2u);
  EXPECT_EQ(snapshot.counters[0].first, "a.first");
  EXPECT_EQ(snapshot.counters[1].first, "z.last");
  ASSERT_EQ(snapshot.histograms.size(), 1u);
  ASSERT_EQ(snapshot.histograms[0].buckets.size(), 2u);  // empty ones elided
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].buckets[0].upper_bound, 1e-6);
  EXPECT_DOUBLE_EQ(snapshot.histograms[0].buckets[1].upper_bound, 1.048576);
  EXPECT_EQ(snapshot.CounterValue("z.last"), 1u);
}

TEST(SnapshotTest, JsonEscapesMetricNames) {
  StatsRegistry registry;
  registry.GetCounter("weird\"name\\with\nescapes")->Increment();
  const std::string json = registry.Snapshot().ToJson();
  EXPECT_NE(json.find("\"weird\\\"name\\\\with\\nescapes\": 1"),
            std::string::npos);
}

TEST(ProcessRegistryTest, IsASingleton) {
  EXPECT_EQ(Registry(), Registry());
  EXPECT_NE(Registry(), nullptr);
}

}  // namespace
}  // namespace obs
}  // namespace atypical
