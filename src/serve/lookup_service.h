#ifndef SSJOIN_SERVE_LOOKUP_SERVICE_H_
#define SSJOIN_SERVE_LOOKUP_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "obs/metrics.h"

namespace ssjoin::serve {

/// Knobs of a LookupService.
struct LookupServiceOptions {
  /// Max lookups admitted and not yet answered. Admission beyond this is
  /// rejected with Unavailable: concurrency is strictly bounded
  /// (backpressure), it never grows with offered load.
  size_t max_queue = 1024;
};

/// A plain-value copy of a LookupService's counters plus derived latency
/// quantiles, taken at one instant (not atomically across fields).
struct StatsSnapshot {
  uint64_t requests = 0;
  uint64_t rejected_overload = 0;
  uint64_t rejected_deadline = 0;
  /// Lookups admitted and not yet answered.
  uint64_t in_flight = 0;
  uint64_t latency_count = 0;
  double latency_mean_us = 0.0;
  double latency_p50_us = 0.0;
  double latency_p95_us = 0.0;
  double latency_p99_us = 0.0;
  uint64_t latency_max_us = 0;

  /// Renders the snapshot as one JSON object (the `stats` wire response).
  std::string ToJson() const;
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
/// even while writers mutate the index concurrently. Writers call the index
/// directly (index()); the service adds nothing to a mutation.
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
  /// A non-empty `filter` restricts matches to records whose attributes
  /// satisfy the predicate (bit-identical to post-filtering an unfiltered
  /// lookup). A non-null `values` receives each match's value, read from the
  /// epoch the lookup scored against. Runs on the calling thread; safe to
  /// call from any number of threads concurrently.
  Result<std::vector<Match>> Lookup(
      const std::string& query, size_t k,
      std::chrono::milliseconds deadline = std::chrono::milliseconds::zero(),
      const filter::FilterPredicate& filter = {},
      std::vector<std::string>* values = nullptr);

  /// Consistent-enough point-in-time counters and latency quantiles, read
  /// from the `serve.*` metrics of metrics().
  StatsSnapshot Stats() const;

  /// This service's own registry, linked into obs::Registry::Global():
  /// the `serve.*` counters, the `serve.in_flight` gauge and the latency
  /// and lifecycle histograms.
  obs::Registry& metrics() { return metrics_; }

  /// The served index, for mutations, maintenance and point reads.
  index::MutableFuzzyIndex& index() const { return *index_; }

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

  /// Takes one of the `max_queue` in-flight slots, or returns Unavailable.
  Status Admit();
  /// Returns an admitted lookup's slot and wakes a waiting Shutdown.
  void Release();

  std::unique_ptr<index::MutableFuzzyIndex> index_;
  LookupServiceOptions options_;

  obs::Registry metrics_{&obs::Registry::Global()};
  obs::Counter* const requests_;           // answered: ok + deadline-failed
  obs::Counter* const rejected_overload_;  // admission full, or shutting down
  obs::Counter* const rejected_deadline_;  // expired on entry or before LookupAt
  obs::Histogram* const latency_;
  /// Request lifecycle spans: admission (Lookup entry → start of LookupAt)
  /// and lookup (the LookupAt call).
  obs::Histogram* const span_admission_;
  obs::Histogram* const span_lookup_;

  /// Guards admission: `stopping_` and every change to `in_flight_`, which
  /// Shutdown waits on through `drained_cv_`.
  std::mutex mu_;
  std::condition_variable drained_cv_;
  bool stopping_ = false;
  /// Lookups admitted and not yet answered; at most `max_queue`. Changed
  /// only under `mu_`; a gauge, so Stats reads it without the lock.
  obs::Gauge* const in_flight_;
  std::function<void()> lookup_hook_;
};

}  // namespace ssjoin::serve

#endif  // SSJOIN_SERVE_LOOKUP_SERVICE_H_
