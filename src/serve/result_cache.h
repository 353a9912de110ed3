// LRU cache of query results keyed by the full query identity and the
// snapshot epoch it was computed against (DESIGN §16).
//
// Correctness rests on two facts: (a) a snapshot is immutable, so a result
// computed at epoch E is valid for E forever, and (b) QueryEngine::Run is
// bit-deterministic per (query, forest state) — the query-local id
// generator (kQueryMacroIdBase) makes even result macro ids reproducible.
// The epoch in the key therefore makes staleness structurally impossible: a
// new publish changes the key, so old entries can never answer new-epoch
// queries.  Old-epoch entries are garbage, collected lazily by
// DropStaleEpochs() when the service notices an epoch advance.
#ifndef ATYPICAL_SERVE_RESULT_CACHE_H_
#define ATYPICAL_SERVE_RESULT_CACHE_H_

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <tuple>
#include <utility>

#include "core/query.h"
#include "util/sync.h"
#include "util/thread_annotations.h"

namespace atypical {
namespace serve {

// Everything that determines a query's answer: W, T, the significance
// density δs, the strategy, and the snapshot epoch.
struct QueryCacheKey {
  double min_x = 0, min_y = 0, max_x = 0, max_y = 0;  // W
  int first_day = 0, last_day = 0;                    // T
  double delta_s = 0;                                 // significance density
  QueryStrategy strategy = QueryStrategy::kAll;
  uint64_t epoch = 0;

  static QueryCacheKey Make(const AnalyticalQuery& query, double delta_s,
                            QueryStrategy strategy, uint64_t epoch) {
    return QueryCacheKey{query.area.min_x, query.area.min_y, query.area.max_x,
                         query.area.max_y, query.days.first_day,
                         query.days.last_day,  delta_s, strategy, epoch};
  }

 private:
  auto Tie() const {
    return std::tie(epoch, first_day, last_day, min_x, min_y, max_x, max_y,
                    delta_s, strategy);
  }

 public:
  // Epoch leads the ordering so one epoch's entries are contiguous in the
  // index and DropStaleEpochs is a single range erase.
  friend bool operator<(const QueryCacheKey& a, const QueryCacheKey& b) {
    return a.Tie() < b.Tie();
  }
  friend bool operator==(const QueryCacheKey& a, const QueryCacheKey& b) {
    return a.Tie() == b.Tie();
  }
};

// Thread-safe LRU map from QueryCacheKey to an immutable, shared
// QueryResult.  Bounded by entry count; eviction is strict LRU.
// `max_entries == 0` disables caching (every find misses, stores are
// dropped) so callers can turn the cache off without branching.
class QueryResultCache {
 public:
  explicit QueryResultCache(size_t max_entries);
  QueryResultCache(const QueryResultCache&) = delete;
  QueryResultCache& operator=(const QueryResultCache&) = delete;

  // The cached result for `key`, or nullptr on miss.  A hit refreshes the
  // entry's LRU position.  Counts serve.cache.{hits,misses}.
  std::shared_ptr<const QueryResult> FindCached(const QueryCacheKey& key);

  // Inserts (or refreshes) `key`.  Evicts the least-recently-used entry
  // when full.  Counts serve.cache.evictions per evicted entry.
  void StoreCached(const QueryCacheKey& key,
                   std::shared_ptr<const QueryResult> result);

  // Drops every entry with key.epoch < live_epoch (their snapshots can no
  // longer be acquired, so the entries can never hit again).  Returns the
  // number dropped; counts serve.cache.invalidations.
  size_t DropStaleEpochs(uint64_t live_epoch);

  struct CacheTotals {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t invalidations = 0;
    size_t entries = 0;
    // hits / (hits + misses) in percent; 0 before any lookup.
    double hit_rate_percent = 0.0;
  };
  CacheTotals totals() const;

  size_t max_entries() const { return max_entries_; }

 private:
  struct Entry {
    QueryCacheKey key;
    std::shared_ptr<const QueryResult> result;
  };
  // Recency list, most-recent first; the index maps a key to its list node.
  using LruList = std::list<Entry>;
  using Index = std::map<QueryCacheKey, LruList::iterator>;

  const size_t max_entries_;
  mutable Mutex mu_;
  LruList lru_ ATYPICAL_GUARDED_BY(mu_);
  Index index_ ATYPICAL_GUARDED_BY(mu_);
  uint64_t hits_ ATYPICAL_GUARDED_BY(mu_) = 0;
  uint64_t misses_ ATYPICAL_GUARDED_BY(mu_) = 0;
  uint64_t evictions_ ATYPICAL_GUARDED_BY(mu_) = 0;
  uint64_t invalidations_ ATYPICAL_GUARDED_BY(mu_) = 0;
};

}  // namespace serve
}  // namespace atypical

#endif  // ATYPICAL_SERVE_RESULT_CACHE_H_
