// Lint fixture: idiomatic code that must produce ZERO findings.
// (Not compiled; scanned by scripts/atypical_lint.py --self-test.)
#include "util/logging.h"
#include "util/status.h"
#include "util/sync.h"

namespace atypical {

void Good() {
  // Dotted metric names per DESIGN §9; latency histograms end in seconds.
  static obs::Counter* const accepted =
      obs::Registry()->GetCounter("fixture.records_accepted");
  static obs::Histogram* const latency =
      obs::Registry()->GetHistogram("fixture.scan.seconds");
  static obs::Histogram* const sizes = obs::Registry()->GetHistogram(
      "fixture.batch_size", obs::BucketLayout::Counts());
  accepted->Increment();

  // Resilience metrics listed in stats_schema.json resilienceMetrics, and
  // serving metrics listed in servingMetrics (AL008).
  static obs::Counter* const torn =
      obs::Registry()->GetCounter("fault.torn_writes");
  static obs::Counter* const lost =
      obs::Registry()->GetCounter("degradation.records_lost");
  static obs::Counter* const requests =
      obs::Registry()->GetCounter("serve.requests");
  torn->Increment();
  lost->Increment();
  requests->Increment();

  // CHECK/DCHECK over pure reads only.
  int n = 3;
  CHECK_GE(n, 0) << "negative batch";
  DCHECK_EQ(n % 2, 1);
  static_assert(sizeof(int) >= 4, "static_assert is not a bare assert");

  // Annotated wrapper, not std::mutex.
  Mutex mu;
  MutexLock lock(&mu);

  // Justified discard and justified NOLINT.
  (void)latency;  // registered for the side effect; recorded elsewhere
  // NOLINTNEXTLINE(cppcoreguidelines-pro-type-reinterpret-cast): byte I/O
  const char* bytes = reinterpret_cast<const char*>(&n);
  (void)bytes;  // fixture only exercises the cast
  (void)sizes;  // fixture only exercises registration
}

}  // namespace atypical
