// The concurrent query front-end (DESIGN §16): acquire the current epoch's
// snapshot and run the engine on it.
//
//   ServeReply r = service.ServeQuery(query, ServeStrategy::kGuided, &scratch);
//
// ServeQuery is safe from any number of threads concurrently with the
// single writer publishing new epochs through the ServingForest.  The
// serving contract — property-tested and TSan-pounded — is that every reply
// is bit-identical to a direct single-threaded
// `reply.snapshot->engine.Run(query, strategy)` (timings and the shared obs
// counters excepted): concurrency is a performance feature, never an
// answer-changing one.  The service runs exactly the strategy the caller
// asked for, so an answer never depends on earlier traffic.
#ifndef ATYPICAL_SERVE_QUERY_SERVICE_H_
#define ATYPICAL_SERVE_QUERY_SERVICE_H_

#include <cstddef>
#include <memory>

#include "core/query.h"
#include "serve/snapshot.h"

namespace atypical {
namespace serve {

// A served query runs one of the engine's strategies; the alias keeps the
// serving API's spelling.
using ServeStrategy = QueryStrategy;

inline QueryStrategy ToQueryStrategy(ServeStrategy strategy) {
  return strategy;
}

// Kept only so existing callers that spell `cache_entries = 0` still
// compile; the service has no result cache and CHECKs that the field is 0.
struct ServeOptions {
  size_t cache_entries = 0;
};

struct ServeReply {
  // The answer, immutable once served.
  std::shared_ptr<const QueryResult> result;
  // The snapshot the answer was computed against.  Holding it here lets the
  // caller re-run the query against exactly this state (the bit-identity
  // tests do) and pins the epoch alive until the reply is dropped.
  std::shared_ptr<const ForestSnapshot> snapshot;
};

// Stateless per query; one instance serves all threads.
class QueryService {
 public:
  // `serving` must outlive the service.
  explicit QueryService(const ServingForest* serving,
                        const ServeOptions& options = {});
  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  // Answers Q(W, T) with `strategy` from the current epoch: acquire the
  // snapshot, then run its engine.  `scratch` is the caller thread's
  // reusable query scratch (one per worker; see QueryScratch).
  ServeReply ServeQuery(const AnalyticalQuery& query, ServeStrategy strategy,
                        QueryScratch* scratch);

  // Convenience overload with a call-local scratch.
  ServeReply ServeQuery(const AnalyticalQuery& query, ServeStrategy strategy);

 private:
  const ServingForest* serving_;
};

}  // namespace serve
}  // namespace atypical

#endif  // ATYPICAL_SERVE_QUERY_SERVICE_H_
