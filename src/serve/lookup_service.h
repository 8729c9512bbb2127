#ifndef SSJOIN_SERVE_LOOKUP_SERVICE_H_
#define SSJOIN_SERVE_LOOKUP_SERVICE_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/result.h"
#include "exec/exec_context.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "obs/metrics.h"
#include "serve/metrics.h"
#include "serve/query_cache.h"

namespace ssjoin::serve {

/// Knobs of a LookupService.
struct LookupServiceOptions {
  /// Max requests waiting for dispatch. Admission beyond this is rejected
  /// with Unavailable — the queue is strictly bounded (backpressure), it
  /// never grows with offered load.
  size_t max_queue = 1024;
  /// Max lookups dispatched as one micro-batch.
  size_t max_batch = 64;
  /// Worker threads for batch dispatch (morsel size is forced to 1 so each
  /// lookup is an independently stealable unit).
  exec::ExecContext exec;
  /// Total query-cache entries across all shards; 0 disables caching.
  size_t cache_capacity = 4096;
  size_t cache_shards = 8;
};

/// \brief A long-lived, thread-safe fuzzy-lookup service over one
/// index::MutableFuzzyIndex — the online face of the paper's §6
/// record-lookup scenario, now over a mutable corpus.
///
/// Concurrency model: callers block in Lookup while a single dispatcher
/// thread drains a bounded admission queue in micro-batches of up to
/// `max_batch` requests, fanning each batch out through exec::ParallelFor.
/// Batching amortizes dispatch overhead under concurrent load without adding
/// latency when idle (a lone request is dispatched immediately as a batch of
/// one).
///
/// Every request captures the index's published epoch at admission and runs
/// against exactly that epoch (LookupAt), so a batch is internally
/// consistent even while writers mutate the index concurrently. The query
/// cache key carries the epoch, which makes a cache hit bit-identical to
/// recomputing against the epoch it names — mutations can never surface a
/// stale hit, because they change the epoch and with it every key.
///
/// Overload policy: when the admission queue is full, Lookup returns
/// Unavailable immediately (load shedding); when a request's deadline
/// expires before its batch is dispatched, it completes with
/// DeadlineExceeded without touching the index. Nothing ever queues
/// unboundedly or blocks forever.
class LookupService {
 public:
  using Match = index::MutableFuzzyIndex::Match;

  /// Takes ownership of a mutable index (created, or opened from a data dir)
  /// and starts the dispatcher thread.
  static Result<std::unique_ptr<LookupService>> Create(
      std::unique_ptr<index::MutableFuzzyIndex> index,
      const LookupServiceOptions& options);

  ~LookupService();
  LookupService(const LookupService&) = delete;
  LookupService& operator=(const LookupService&) = delete;

  /// The best `k` matches for `query` (see MutableFuzzyIndex::LookupAt), or:
  ///  - Unavailable        if the admission queue is full or shutting down,
  ///  - DeadlineExceeded   if `deadline` elapsed before dispatch; a negative
  ///    `deadline` (already expired at the call) is rejected at admission
  ///    without queueing (deadline zero = no deadline).
  /// A non-empty `filter` restricts matches to records whose
  /// attributes satisfy the predicate (bit-identical to post-filtering an
  /// unfiltered lookup); its canonical JSON joins the cache key, so filtered
  /// and unfiltered results never alias either. Blocks the caller until the
  /// result is ready; safe to call from any number of threads concurrently.
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

  /// Stops accepting requests, fails queued ones with Unavailable and joins
  /// the dispatcher. Idempotent; called by the destructor.
  void Shutdown();

  /// Test hook invoked by the dispatcher after claiming a batch, before
  /// running it — lets tests hold the dispatcher to saturate the admission
  /// queue deterministically. Not for production use.
  void SetDispatchHookForTest(std::function<void()> hook);

  /// Test hook invoked with each batch item's index right before that item
  /// executes — lets tests stall one item and observe the per-item deadline
  /// recheck on the next. Not for production use.
  void SetItemHookForTest(std::function<void(size_t)> hook);

 private:
  struct Pending {
    std::string query;
    std::string cache_key;
    /// The epoch view captured at admission; the lookup runs against it so
    /// the result matches the epoch its cache key names.
    std::shared_ptr<const index::EpochState> state;
    size_t k;
    filter::FilterPredicate filter;
    std::chrono::steady_clock::time_point start;
    std::chrono::steady_clock::time_point deadline;
    bool has_deadline;
    std::promise<Result<std::vector<Match>>> promise;
  };

  LookupService(std::unique_ptr<index::MutableFuzzyIndex> index,
                const LookupServiceOptions& options);

  /// obs::Registry provider: mirrors this service's counters, queue depth
  /// and latency/lifecycle histograms into the snapshot as `serve.*`.
  void CollectMetrics(std::vector<obs::MetricPoint>* out) const;

  /// Cache key: the query's token sequence (unit-separator joined) plus k,
  /// alpha, the epoch and (when non-empty) the filter's canonical JSON —
  /// exactly the inputs Lookup's result depends on.
  std::string CacheKey(const std::string& query, size_t k, uint64_t epoch,
                       const filter::FilterPredicate& filter) const;

  void DispatcherLoop();
  void RunBatch(std::vector<Pending>* batch);
  /// Purges cache entries from epochs below `epoch` the first time that
  /// epoch is observed (every mutation path funnels through the next
  /// Lookup's Snapshot, so no separate publication callback is needed).
  void PurgeStaleCache(uint64_t epoch);

  std::unique_ptr<index::MutableFuzzyIndex> index_;
  LookupServiceOptions options_;
  QueryCache cache_;
  ServiceMetrics metrics_;
  std::atomic<uint64_t> provider_id_{0};  // obs::Registry provider handle

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;
  std::deque<Pending> queue_;
  bool stopping_ = false;
  std::function<void()> dispatch_hook_;
  std::function<void(size_t)> item_hook_;
  /// Highest epoch the cache has been purged up to (see PurgeStaleCache).
  std::atomic<uint64_t> purged_epoch_{0};
  std::thread dispatcher_;
};

}  // namespace ssjoin::serve

#endif  // SSJOIN_SERVE_LOOKUP_SERVICE_H_
