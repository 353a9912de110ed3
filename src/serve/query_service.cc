#include "serve/query_service.h"

#include "obs/stats.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace atypical {
namespace serve {

QueryService::QueryService(const ServingForest* serving,
                           const ServeOptions& options)
    : serving_(serving) {
  CHECK(serving != nullptr);
  CHECK_EQ(options.cache_entries, 0u) << "QueryService has no result cache";
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
  reply.result = std::make_shared<const QueryResult>(
      reply.snapshot->engine.Run(query, strategy, scratch));
  return reply;
}

}  // namespace serve
}  // namespace atypical
