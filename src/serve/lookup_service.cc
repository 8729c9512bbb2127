#include "serve/lookup_service.h"

#include <utility>

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
  std::unique_ptr<LookupService> service(
      new LookupService(std::move(index), options));
  service->provider_id_.store(obs::Registry::Global().RegisterProvider(
      [s = service.get()](std::vector<obs::MetricPoint>* out) {
        s->CollectMetrics(out);
      }));
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
  out->push_back(obs::MetricPoint::FromGauge(
      "serve.in_flight", static_cast<int64_t>(s.in_flight)));
  out->push_back(
      obs::MetricPoint::FromHistogram("serve.latency_us", metrics_.latency));
  out->push_back(obs::MetricPoint::FromHistogram("serve.span.admission_us",
                                                 metrics_.span_admission));
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
    // An already-expired deadline can never be met; reject on entry so it
    // is neither admitted nor touches the index.
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("deadline expired before admission");
  }
  // Capture the published epoch once: the cache probe, the key and the
  // LookupAt all use this one view, so a concurrent mutation can neither
  // tear a request across epochs nor satisfy it from a stale entry.
  std::shared_ptr<const index::EpochState> state = index_->Snapshot();
  PurgeStaleCache(state->epoch);
  std::string cache_key = CacheKey(query, k, state->epoch, filter);
  if (auto cached = cache_.Get(cache_key)) {
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.cache_hits.fetch_add(1, std::memory_order_relaxed);
    metrics_.latency.Record(MicrosSince(start));
    return std::move(*cached);
  }

  SSJOIN_RETURN_NOT_OK(Admit());
  // Returns the in-flight slot on every way out, after this call's last use
  // of the service.
  struct Slot {
    LookupService* service;
    ~Slot() { service->Release(); }
  } slot{this};
  if (lookup_hook_) lookup_hook_();
  if (deadline.count() > 0 && start + deadline <= Clock::now()) {
    // Deadline expiries are requests the service answered (with an error),
    // not load shedding: they count toward requests, unlike overload
    // rejections.
    metrics_.requests.fetch_add(1, std::memory_order_relaxed);
    metrics_.rejected_deadline.fetch_add(1, std::memory_order_relaxed);
    return Status::DeadlineExceeded("deadline expired before lookup");
  }
  // Admission span: entry to the start of LookupAt (epoch capture, cache
  // key, cache probe, admission). Cache hits and rejections are not
  // admissions.
  metrics_.span_admission.Record(MicrosSince(start));
  std::vector<Match> result;
  {
    obs::ObsSpan span(&metrics_.span_lookup);
    result = index_->LookupAt(*state, query, k, filter);
  }
  {
    obs::ObsSpan span(&metrics_.span_reply);
    cache_.Put(cache_key, state->epoch, result);
  }
  metrics_.requests.fetch_add(1, std::memory_order_relaxed);
  metrics_.cache_misses.fetch_add(1, std::memory_order_relaxed);
  metrics_.latency.Record(MicrosSince(start));
  return result;
}

Status LookupService::Admit() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stopping_) {
    metrics_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("lookup service is shutting down");
  }
  if (in_flight_.load(std::memory_order_relaxed) >= options_.max_queue) {
    metrics_.rejected_overload.fetch_add(1, std::memory_order_relaxed);
    return Status::Unavailable("admission bound reached (" +
                               std::to_string(options_.max_queue) +
                               " lookups in flight)");
  }
  in_flight_.fetch_add(1, std::memory_order_relaxed);
  return Status::OK();
}

void LookupService::Release() {
  // Notify under mu_: once Shutdown sees zero under the same lock, no caller
  // touches this service again.
  std::lock_guard<std::mutex> lock(mu_);
  if (in_flight_.fetch_sub(1, std::memory_order_relaxed) == 1 && stopping_) {
    drained_cv_.notify_all();
  }
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

StatsSnapshot LookupService::Stats() const {
  StatsSnapshot s = SnapshotMetrics(metrics_);
  s.cache_evictions = cache_.evictions();
  s.cache_stale_purged = cache_.stale_purged();
  s.in_flight = in_flight_.load(std::memory_order_relaxed);
  return s;
}

void LookupService::Shutdown() {
  // Unregister before tearing anything down: once UnregisterProvider
  // returns, no snapshot is reading this service's metrics.
  if (uint64_t pid = provider_id_.exchange(0); pid != 0) {
    obs::Registry::Global().UnregisterProvider(pid);
  }
  std::unique_lock<std::mutex> lock(mu_);
  stopping_ = true;
  drained_cv_.wait(lock, [this] {
    return in_flight_.load(std::memory_order_relaxed) == 0;
  });
}

}  // namespace ssjoin::serve
