// Scoped heap-allocation counter (DESIGN §15) — the runtime half of the
// serving-readiness contract.
//
// scripts/check_effects.py proves *statically* that ATYPICAL_HOT functions
// stay off locks and I/O and that their allocations are budgeted; AllocProbe
// measures the same paths at runtime so the two verdicts cross-validate.
// Tests warm a path up (first calls may compact features, grow caches,
// reach steady-state capacity), then probe a repeat call and pin the count
// to a named budget:
//
//   util::AllocProbe probe;
//   auto result = engine.Run(query, strategy, &scratch);
//   EXPECT_LE(probe.Count(), kQueryRunSteadyStateAllocBudget);
//
// Implementation: linking util/alloc_probe.cc replaces the global operator
// new/delete with malloc/free forwarders that bump a thread_local counter.
// The counter only sees this thread's allocations, so probes are stable
// under concurrent test shards.  The replacement comes from the static
// library, so it binds into a binary only when that binary references a
// probe symbol; production binaries that never include this header keep the
// default allocator.
#ifndef ATYPICAL_UTIL_ALLOC_PROBE_H_
#define ATYPICAL_UTIL_ALLOC_PROBE_H_

#include <cstdint>

namespace atypical {
namespace util {

// Total operator-new calls made by this thread since it started.  Monotone;
// never reset.  Scoped deltas are what tests should assert on (AllocProbe).
uint64_t ThreadAllocCount();

// Counts this thread's heap allocations from construction to Count().
class AllocProbe {
 public:
  AllocProbe() : start_(ThreadAllocCount()) {}

  // Allocations on this thread since the probe was constructed.  Probes
  // nest: an inner probe's Count() is included in the outer probe's.
  uint64_t Count() const { return ThreadAllocCount() - start_; }

 private:
  uint64_t start_;
};

}  // namespace util
}  // namespace atypical

#endif  // ATYPICAL_UTIL_ALLOC_PROBE_H_
