// The concurrent query front-end (DESIGN §16): snapshot acquisition and
// result caching behind one call.
//
//   ServeReply r = service.ServeQuery(query, ServeStrategy::kGuided, &scratch);
//
// ServeQuery is safe from any number of threads concurrently with the
// single writer publishing new epochs through the ServingForest.  The
// serving contract — property-tested and TSan-pounded — is that every reply
// is bit-identical to a single-threaded, uncached
// `reply.snapshot->engine.Run(query, strategy)` (timings and the shared obs
// counters excepted): caching and concurrency are performance features,
// never answer-changing ones.  The service runs exactly the strategy the
// caller asked for, so an answer never depends on earlier traffic.
#ifndef ATYPICAL_SERVE_QUERY_SERVICE_H_
#define ATYPICAL_SERVE_QUERY_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>

#include "core/query.h"
#include "serve/result_cache.h"
#include "serve/snapshot.h"

namespace atypical {
namespace serve {

// A served query runs one of the engine's strategies; the alias keeps the
// serving API's spelling.
using ServeStrategy = QueryStrategy;

inline QueryStrategy ToQueryStrategy(ServeStrategy strategy) {
  return strategy;
}

struct ServeOptions {
  // Result-cache capacity in entries; 0 disables caching.
  size_t cache_entries = 1024;
};

struct ServeReply {
  // The answer; shared and immutable (a cache hit aliases the stored copy).
  std::shared_ptr<const QueryResult> result;
  // The snapshot the answer was computed against.  Holding it here lets the
  // caller re-run the query against exactly this state (the bit-identity
  // tests do) and pins the epoch alive until the reply is dropped.
  std::shared_ptr<const ForestSnapshot> snapshot;
  bool cache_hit = false;
};

// Stateless per query apart from the cache; one instance serves all
// threads.
class QueryService {
 public:
  // `serving` must outlive the service.
  explicit QueryService(const ServingForest* serving,
                        const ServeOptions& options = {});
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Answers Q(W, T) with `strategy` from the current epoch: acquire
  // snapshot → probe cache → on miss, run the engine and store the result.
  // `scratch` is the caller thread's reusable query scratch (one per
  // worker; see QueryScratch).
  ServeReply ServeQuery(const AnalyticalQuery& query, ServeStrategy strategy,
                        QueryScratch* scratch);

  // Convenience overload with a call-local scratch.
  ServeReply ServeQuery(const AnalyticalQuery& query, ServeStrategy strategy);

  QueryResultCache::CacheTotals cache_totals() const { return cache_.totals(); }
  const ServingForest* serving() const { return serving_; }

 private:
  const ServingForest* serving_;
  QueryResultCache cache_;
  // Highest epoch any request has seen; advancing it triggers the lazy GC
  // of older epochs' cache entries.
  std::atomic<uint64_t> gc_epoch_{0};
};

}  // namespace serve
}  // namespace atypical

#endif  // ATYPICAL_SERVE_QUERY_SERVICE_H_
