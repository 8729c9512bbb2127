#include "serve/lookup_service.h"

#include <utility>

#include "exec/parallel_for.h"

namespace ssjoin::serve {

namespace {

using Clock = std::chrono::steady_clock;

uint64_t MicrosSince(Clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() - start)
          .count());
}

}  // namespace

Result<std::unique_ptr<LookupService>> LookupService::Create(
    std::unique_ptr<index::MutableFuzzyIndex> index,
    const LookupServiceOptions& options) {
  if (index == nullptr) {
    return Status::Invalid("index must not be null");
  }
  if (options.max_queue == 0) {
    return Status::Invalid("max_queue must be at least 1");
  }
  if (options.max_batch == 0) {
    return Status::Invalid("max_batch must be at least 1");
  }
  std::unique_ptr<LookupService> service(
      new LookupService(std::move(index), options));
  service->provider_id_.store(obs::Registry::Global().RegisterProvider(
      [s = service.get()](std::vector<obs::MetricPoint>* out) {
        s->CollectMetrics(out);
      }));
  service->dispatcher_ = std::thread([s = service.get()] { s->DispatcherLoop(); });
  return service;
}

void LookupService::CollectMetrics(std::vector<obs::MetricPoint>* out) const {
  StatsSnapshot s = Stats();
  out->push_back(obs::MetricPoint::FromCounter("serve.requests", s.requests));
  out->push_back(
      obs::MetricPoint::FromCounter("serve.rejected_overload", s.rejected_overload));
  out->push_back(
      obs::MetricPoint::FromCounter("serve.rejected_deadline", s.rejected_deadline));
  out->push_back(obs::MetricPoint::FromCounter("serve.cache_hits", s.cache_hits));
  out->push_back(obs::MetricPoint::FromCounter("serve.cache_misses", s.cache_misses));
  out->push_back(
      obs::MetricPoint::FromCounter("serve.cache_evictions", s.cache_evictions));
  out->push_back(obs::MetricPoint::FromCounter("serve.cache_stale_purged",
                                               s.cache_stale_purged));
  out->push_back(obs::MetricPoint::FromCounter("serve.batches", s.batches));
  out->push_back(
      obs::MetricPoint::FromCounter("serve.batched_lookups", s.batched_lookups));
  out->push_back(obs::MetricPoint::FromGauge(
      "serve.queue_depth", static_cast<int64_t>(s.queue_depth)));
  out->push_back(
      obs::MetricPoint::FromHistogram("serve.latency_us", metrics_.latency));
  out->push_back(obs::MetricPoint::FromHistogram("serve.span.admission_us",
                                                 metrics_.span_admission));
  out->push_back(obs::MetricPoint::FromHistogram("serve.span.queue_wait_us",
                                                 metrics_.span_queue_wait));
  out->push_back(
      obs::MetricPoint::FromHistogram("serve.span.lookup_us", metrics_.span_lookup));
  out->push_back(
      obs::MetricPoint::FromHistogram("serve.span.reply_us", metrics_.span_reply));
}

LookupService::LookupService(std::unique_ptr<index::MutableFuzzyIndex> index,
                             const LookupServiceOptions& options)
    : index_(std::move(index)),
      options_(options),
      cache_(options.cache_capacity, options.cache_shards) {}

LookupService::~LookupService() { Shutdown(); }

std::string LookupService::CacheKey(const std::string& query, size_t k,
                                    uint64_t epoch,
                                    const filter::FilterPredicate& filter) const {
  std::string key;
  key.reserve(query.size() + 32);
  for (const std::string& token : index_->tokenizer().Tokenize(query)) {
    key += token;
    key.push_back('\x1f');  // unit separator: cannot appear inside a token
  }
  key.push_back('\x1e');
  key += std::to_string(k);
  key.push_back('\x1e');
  // alpha is fixed per index, but keying on it keeps entries from one index
  // generation meaningless to another if a cache ever outlives a reload.
  key += std::to_string(index_->options().match.alpha);
  key.push_back('\x1e');
  // The epoch makes every mutation a cache-wide invalidation: entries for
  // older epochs are unreachable and age out of the LRU.
  key += std::to_string(epoch);
  if (!filter.empty()) {
    // Canonical JSON (sorted conjuncts, sorted deduped values) gives equal
    // predicates equal keys; '{' cannot collide with the epoch's digits.
    key.push_back('\x1e');
    key += filter.CanonicalJson();
  }
  return key;
}

Result<std::vector<LookupService::Match>> LookupService::Lookup(
    const std::string& query, size_t k, std::chrono::milliseconds deadline,
    const filter::FilterPredicate& filter) {
  Clock::time_point start = Clock::now();
  if (deadline.count() < 0) {
    // An already-expired deadline can never be met; reject at admission so
    // it neither queues nor touches the index (it would previously be
    // admitted as if it had no deadline at all).
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  // Capture the published epoch once: the cache probe, the key and the
  // eventual LookupAt all use this one view, so a concurrent mutation can
  // neither tear a request across epochs nor satisfy it from a stale entry.
  std::shared_ptr<const index::EpochState> state = index_->Snapshot();
  PurgeStaleCache(state->epoch);
  std::string cache_key = CacheKey(query, k, state->epoch, filter);
  if (auto cached = cache_.Get(cache_key)) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    metrics_.latency.Record(MicrosSince(start));
    return std::move(*cached);
  }

  std::future<Result<std::vector<Match>>> future;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_) {
      metrics_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("lookup service is shutting down");
    }
    if (queue_.size() >= options_.max_queue) {
      metrics_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
      return Status::Unavailable("admission queue full (" +
                                 std::to_string(options_.max_queue) +
                                 " requests queued)");
    }
    Pending pending;
    pending.query = query;
    pending.cache_key = std::move(cache_key);
    pending.state = std::move(state);
    pending.k = k;
    pending.filter = filter;
    pending.start = start;
    pending.has_deadline = deadline.count() > 0;
    pending.deadline = start + deadline;
    future = pending.promise.get_future();
    queue_.push_back(std::move(pending));
  }
  // Admission span: entry to enqueued (tokenize + cache probe + queue push).
  // Cache hits and rejections never enqueue and are not admissions.
  metrics_.span_admission.Record(MicrosSince(start));
  queue_cv_.notify_one();

  Result<std::vector<Match>> result = future.get();
  if (result.ok()) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.cache_misses.fetch_add(1, std::memory_order_relaxed);
    metrics_.latency.Record(MicrosSince(start));
  } else if (result.status().code() == StatusCode::kDeadlineExceeded) {
    // Deadline expiries are requests the service answered (with an error),
    // not load shedding: they count toward requests, unlike overload
    // rejections.
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  }
  return result;
}

void LookupService::PurgeStaleCache(uint64_t epoch) {
  // One thread wins the CAS per epoch advance and pays for the sweep; the
  // rest proceed. Entries keyed to older epochs are unreachable (the epoch
  // is in the cache key) — purging returns their capacity immediately
  // instead of letting dead weight ride the LRU.
  uint64_t seen = purged_epoch_.load(std::memory_order_relaxed);
  while (seen < epoch) {
    if (purged_epoch_.compare_exchange_weak(seen, epoch,
                                            std::memory_order_relaxed)) {
      cache_.PurgeEpochsBelow(epoch);
      return;
    }
  }
}

void LookupService::DispatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    std::function<void()> hook;
    {
      std::unique_lock<std::mutex> lock(mu_);
      queue_cv_.wait(lock, [&] { return stopping_ || !queue_.empty(); });
      if (stopping_) return;  // Shutdown drains the queue itself
      size_t n = std::min(options_.max_batch, queue_.size());
      batch.reserve(n);
      for (size_t i = 0; i < n; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
      hook = dispatch_hook_;
    }
    if (hook) hook();
    RunBatch(&batch);
  }
}

void LookupService::RunBatch(std::vector<Pending>* batch) {
  // Expire requests whose deadline passed while they waited in the queue;
  // they never reach the index.
  Clock::time_point now = Clock::now();
  std::vector<Pending> live;
  live.reserve(batch->size());
  for (Pending& p : *batch) {
    if (p.has_deadline && p.deadline <= now) {
      metrics_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
      p.promise.set_value(
          Status::DeadlineExceeded("deadline expired before dispatch"));
    } else {
      // Queue-wait span: admission to batch claim (includes the admission
      // span itself — lifecycle spans nest from request start, they don't
      // tile).
      metrics_.span_queue_wait.Record(MicrosSince(p.start));
      live.push_back(std::move(p));
    }
  }
  if (live.empty()) return;

  metrics_.batches.fetch_add(1, std::memory_order_relaxed);
  metrics_.batched_lookups.fetch_add(live.size(), std::memory_order_relaxed);

  std::function<void(size_t)> item_hook;
  {
    std::lock_guard<std::mutex> lock(mu_);
    item_hook = item_hook_;
  }

  // One lookup per morsel: lookups are coarse enough that per-item stealing
  // beats chunking, and batch sizes are far below morsel-granularity scale.
  exec::ExecContext ctx = options_.exec;
  ctx.morsel_size = 1;
  std::vector<std::vector<Match>> results(live.size());
  std::vector<uint8_t> expired(live.size(), 0);
  exec::ParallelFor(
      ctx, live.size(),
      [&](size_t /*worker*/, size_t /*morsel*/, size_t begin, size_t end) {
        for (size_t i = begin; i < end; ++i) {
          if (item_hook) item_hook(i);
          // The batch-claim check above charged queue time, but an item can
          // still go over budget while earlier items of the SAME batch run
          // (batch formation is not free for mid-batch arrivals). Recompute
          // the remaining budget at execution start and refuse over-budget
          // work rather than spending index time on an answer the caller
          // already abandoned.
          if (live[i].has_deadline && live[i].deadline <= Clock::now()) {
            expired[i] = 1;
            metrics_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
            live[i].promise.set_value(
                Status::DeadlineExceeded("deadline expired before execution"));
            continue;
          }
          obs::ObsSpan span(&metrics_.span_lookup);
          results[i] =
              index_->LookupAt(*live[i].state, live[i].query, live[i].k,
                               live[i].filter);
        }
      });

  obs::ObsSpan reply_span(&metrics_.span_reply);
  for (size_t i = 0; i < live.size(); ++i) {
    if (expired[i]) continue;  // promise already failed with DeadlineExceeded
    cache_.Put(live[i].cache_key, live[i].state->epoch, results[i]);
    live[i].promise.set_value(std::move(results[i]));
  }
}

StatsSnapshot LookupService::Stats() const {
  StatsSnapshot s = SnapshotMetrics(metrics_);
  s.cache_evictions = cache_.evictions();
  s.cache_stale_purged = cache_.stale_purged();
  {
    std::lock_guard<std::mutex> lock(mu_);
    s.queue_depth = queue_.size();
  }
  return s;
}

void LookupService::Shutdown() {
  // Unregister before tearing anything down: once UnregisterProvider
  // returns, no snapshot is reading this service's metrics.
  if (uint64_t pid = provider_id_.exchange(0); pid != 0) {
    obs::Registry::Global().UnregisterProvider(pid);
  }
  std::deque<Pending> drained;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopping_ && !dispatcher_.joinable()) return;
    stopping_ = true;
    drained.swap(queue_);
  }
  queue_cv_.notify_all();
  for (Pending& p : drained) {
    metrics_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
    p.promise.set_value(Status::Unavailable("lookup service is shutting down"));
  }
  if (dispatcher_.joinable()) dispatcher_.join();
}

void LookupService::SetDispatchHookForTest(std::function<void()> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  dispatch_hook_ = std::move(hook);
}

void LookupService::SetItemHookForTest(std::function<void(size_t)> hook) {
  std::lock_guard<std::mutex> lock(mu_);
  item_hook_ = std::move(hook);
}

}  // namespace ssjoin::serve
