// Serving-readiness annotation for query hot paths (DESIGN §15).
//
// ATYPICAL_HOT marks a function as part of the read-mostly serving surface:
// the paths a high-QPS QueryEngine will run per request (ROADMAP item 3).
// The static effect analysis (scripts/check_effects.py) builds a call graph
// over src/ and gates every annotated function with three lint checks:
//
//   AL013 hot-path-no-block   — must not reach util::Mutex or thread joins
//   AL014 hot-path-no-io      — must not reach streams, stdio, or LOG(...)
//   AL015 hot-path-alloc-budget — allocation must be budgeted: either absent
//                                 or grandfathered in scripts/effects_ratchet
//                                 .json with a burn-down note
//
// The runtime counterpart is util/alloc_probe.h: tests wrap annotated paths
// in an AllocProbe and pin their steady-state allocation counts, so the
// static verdict and the measured behaviour cross-validate each other.
//
// The macro also tells the compiler the function is hot, which biases
// inlining and code layout in its favour on GCC/Clang.
#ifndef ATYPICAL_UTIL_HOT_PATH_H_
#define ATYPICAL_UTIL_HOT_PATH_H_

#if defined(__GNUC__) || defined(__clang__)
#define ATYPICAL_HOT __attribute__((hot))
#else
#define ATYPICAL_HOT
#endif

#endif  // ATYPICAL_UTIL_HOT_PATH_H_
