#include "serve/query_service.h"

#include <utility>

#include "obs/stats.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace atypical {
namespace serve {

QueryService::QueryService(const ServingForest* serving,
                           const ServeOptions& options)
    : serving_(serving), cache_(options.cache_entries) {
  CHECK(serving != nullptr);
}

ServeReply QueryService::ServeQuery(const AnalyticalQuery& query,
                                    ServeStrategy strategy) {
  QueryScratch scratch;
  return ServeQuery(query, strategy, &scratch);
}

ServeReply QueryService::ServeQuery(const AnalyticalQuery& query,
                                    ServeStrategy strategy,
                                    QueryScratch* scratch) {
  static obs::Counter* const requests =
      obs::Registry()->GetCounter("serve.requests");
  static obs::Histogram* const request_seconds =
      obs::Registry()->GetHistogram("serve.request_seconds");
  obs::TraceSpan span(request_seconds);
  requests->Add(1);

  ServeReply reply;
  reply.snapshot = serving_->AcquireSnapshot();
  const ForestSnapshot& snap = *reply.snapshot;

  // Epoch advance: lazily collect cache entries from epochs no new request
  // can key into.  The epoch inside the key already guarantees correctness;
  // this only reclaims memory.
  uint64_t seen = gc_epoch_.load(std::memory_order_relaxed);
  if (snap.epoch > seen &&
      gc_epoch_.compare_exchange_strong(seen, snap.epoch,
                                        std::memory_order_relaxed)) {
    cache_.DropStaleEpochs(snap.epoch);
  }

  const QueryCacheKey key = QueryCacheKey::Make(
      query, snap.engine.options().significance.delta_s, strategy, snap.epoch);
  if (std::shared_ptr<const QueryResult> cached = cache_.FindCached(key)) {
    reply.result = std::move(cached);
    reply.cache_hit = true;
    return reply;
  }

  reply.result = std::make_shared<QueryResult>(
      snap.engine.Run(query, strategy, scratch));
  cache_.StoreCached(key, reply.result);
  return reply;
}

}  // namespace serve
}  // namespace atypical
