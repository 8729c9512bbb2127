#ifndef SSJOIN_SERVE_LOOKUP_SERVICE_H_
#define SSJOIN_SERVE_LOOKUP_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "obs/metrics.h"
#include "serve/metrics.h"
#include "serve/query_cache.h"

namespace ssjoin::serve {

/// Knobs of a LookupService.
struct LookupServiceOptions {
  /// Max lookups admitted and not yet answered. Admission beyond this is
  /// rejected with Unavailable: concurrency is strictly bounded
  /// (backpressure), it never grows with offered load.
  size_t max_queue = 1024;
  /// Total query-cache entries across all shards; 0 disables caching.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
};

/// \brief A long-lived, thread-safe fuzzy-lookup service over one
/// index::MutableFuzzyIndex — the online face of the paper's §6
/// record-lookup scenario, now over a mutable corpus.
///
/// Concurrency model: the service owns no thread. Each Lookup runs
/// MutableFuzzyIndex::LookupAt on the calling thread, so concurrency equals
/// the number of caller threads, bounded by one admission limit
/// (`max_queue` lookups in flight).
///
/// Every request captures the index's published epoch on entry and runs
/// against exactly that epoch (LookupAt), so it is internally consistent
/// even while writers mutate the index concurrently. The query cache key
/// carries the epoch, which makes a cache hit bit-identical to recomputing
/// against the epoch it names — mutations can never surface a stale hit,
/// because they change the epoch and with it every key.
///
/// Overload policy: when `max_queue` lookups are already in flight, Lookup
/// returns Unavailable immediately (load shedding); when a request's
/// deadline has expired by the time it would start LookupAt, it completes
/// with DeadlineExceeded without touching the index. Nothing ever queues.
class LookupService {
 public:
  using Match = index::MutableFuzzyIndex::Match;

  /// Takes ownership of a mutable index (created, or opened from a data dir).
  static Result<std::unique_ptr<LookupService>> Create(
      std::unique_ptr<index::MutableFuzzyIndex> index,
      const LookupServiceOptions& options);

  ~LookupService();
  LookupService(const LookupService&) = delete;
  LookupService& operator=(const LookupService&) = delete;

  /// The best `k` matches for `query` (see MutableFuzzyIndex::LookupAt), or:
  ///  - Unavailable        if `max_queue` lookups are in flight or the
  ///    service is shutting down,
  ///  - DeadlineExceeded   if `deadline` elapsed before LookupAt would start;
  ///    a negative `deadline` (already expired at the call) is rejected on
  ///    entry (deadline zero = no deadline).
  /// A non-empty `filter` restricts matches to records whose
  /// attributes satisfy the predicate (bit-identical to post-filtering an
  /// unfiltered lookup); its canonical JSON joins the cache key, so filtered
  /// and unfiltered results never alias either. Runs on the calling thread;
  /// safe to call from any number of threads concurrently.
  Result<std::vector<Match>> Lookup(
      const std::string& query, size_t k,
      std::chrono::milliseconds deadline = std::chrono::milliseconds::zero(),
      const filter::FilterPredicate& filter = {});

  /// Mutations: thin passthroughs to the index. Each publishes a new epoch,
  /// naturally invalidating every cached lookup (the epoch is in the key).
  Status Upsert(uint64_t doc_id, const std::string& value,
                const filter::AttrSet& attrs = {}) {
    return index_->Upsert(doc_id, value, attrs);
  }
  Status Delete(uint64_t doc_id) { return index_->Delete(doc_id); }
  Status BulkLoad(const std::vector<std::pair<uint64_t, std::string>>& records) {
    return index_->BulkLoad(records);
  }
  Status Seal() { return index_->Seal(); }
  Status Compact() { return index_->Compact(); }
  uint64_t epoch() const { return index_->epoch(); }

  /// Global-statistics passthroughs for sharded serving (see the Global API
  /// section of MutableFuzzyIndex); each publishes a new epoch, invalidating
  /// the cache exactly like the local mutations above.
  Status UpsertGlobal(uint64_t doc_id, const std::string& value,
                      const filter::AttrSet& attrs, index::GlobalDelta* delta) {
    return index_->UpsertGlobal(doc_id, value, attrs, delta);
  }
  Status DeleteGlobal(uint64_t doc_id, index::GlobalDelta* delta) {
    return index_->DeleteGlobal(doc_id, delta);
  }
  Status ApplyGlobalDelta(const index::GlobalDelta& delta) {
    return index_->ApplyGlobalDelta(delta);
  }
  Status ResetGlobalStats(const std::vector<std::string>& values) {
    return index_->ResetGlobalStats(values);
  }
  std::vector<std::pair<uint64_t, std::string>> LiveDocs() const {
    return index_->LiveDocs();
  }

  /// The current live value of `doc_id`, if any (display convenience).
  std::optional<std::string> ValueOf(uint64_t doc_id) const {
    return index_->ValueAt(*index_->Snapshot(), doc_id);
  }

  /// The current live attributes of `doc_id`, if live (display convenience).
  std::optional<filter::AttrSet> AttrsOf(uint64_t doc_id) const {
    return index_->AttrsAt(*index_->Snapshot(), doc_id);
  }

  /// Consistent-enough point-in-time counters and latency quantiles.
  StatsSnapshot Stats() const;

  const index::MutableFuzzyIndex& index() const { return *index_; }
  const LookupServiceOptions& options() const { return options_; }

  /// Stops admitting lookups (new ones get Unavailable), then waits until
  /// every admitted lookup has answered, so destroying the service never
  /// races a LookupAt. Idempotent; called by the destructor.
  void Shutdown();

  /// Test hook invoked by every admitted lookup between admission and the
  /// deadline re-check — lets tests hold callers in flight to saturate
  /// admission or expire a deadline deterministically. Set it before any
  /// concurrent Lookup call (it is not synchronized). Not for production
  /// use.
  void SetLookupHookForTest(std::function<void()> hook) {
    lookup_hook_ = std::move(hook);
  }

 private:
  LookupService(std::unique_ptr<index::MutableFuzzyIndex> index,
                const LookupServiceOptions& options);

  /// obs::Registry provider: mirrors this service's counters, in-flight
  /// count and latency/lifecycle histograms into the snapshot as `serve.*`.
  void CollectMetrics(std::vector<obs::MetricPoint>* out) const;

  /// Cache key: the query's token sequence (unit-separator joined) plus k,
  /// alpha, the epoch and (when non-empty) the filter's canonical JSON —
  /// exactly the inputs Lookup's result depends on.
  std::string CacheKey(const std::string& query, size_t k, uint64_t epoch,
                       const filter::FilterPredicate& filter) const;

  /// Takes one of the `max_queue` in-flight slots, or returns Unavailable.
  Status Admit();
  /// Returns an admitted lookup's slot and wakes a waiting Shutdown.
  void Release();
  /// Purges cache entries from epochs below `epoch` the first time that
  /// epoch is observed (every mutation path funnels through the next
  /// Lookup's Snapshot, so no separate publication callback is needed).
  void PurgeStaleCache(uint64_t epoch);

  std::unique_ptr<index::MutableFuzzyIndex> index_;
  LookupServiceOptions options_;
  QueryCache cache_;
  ServiceMetrics metrics_;
  std::atomic<uint64_t> provider_id_{0};  // obs::Registry provider handle

  /// Guards admission: `stopping_` and every change to `in_flight_`, which
  /// Shutdown waits on through `drained_cv_`.
  std::mutex mu_;
  std::condition_variable drained_cv_;
  bool stopping_ = false;
  /// Lookups admitted and not yet answered; at most `max_queue`. Changed
  /// only under `mu_`; atomic so that Stats can read it without the lock.
  std::atomic<size_t> in_flight_{0};
  std::function<void()> lookup_hook_;
  /// Highest epoch the cache has been purged up to (see PurgeStaleCache).
  std::atomic<uint64_t> purged_epoch_{0};
};

}  // namespace ssjoin::serve

#endif  // SSJOIN_SERVE_LOOKUP_SERVICE_H_
