#ifndef SSJOIN_SERVE_LOOKUP_SERVICE_H_
#define SSJOIN_SERVE_LOOKUP_SERVICE_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "obs/metrics.h"
#include "serve/handler.h"

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

/// \brief The per-shard surface a shard::ShardedLookupIndex scatter-gathers
/// over.
///
/// The interface hides the transport: a LookupService answers in this
/// process, shard::RemoteShard speaks the shard-server wire ops (served by
/// shard::InstallShardServerOps) over a unix socket, and tests substitute
/// fakes to make the fan-out policies (hedging, degraded reads)
/// deterministic. Methods may be called from several threads at once:
/// lookups from the scatter threads, mutations from one caller at a time.
class ShardClient {
 public:
  virtual ~ShardClient() = default;

  /// The shard's best `k` matches, each with its value so a merge never
  /// needs a second round trip to render results. `remaining` is the budget
  /// left at dispatch (zero = no deadline); a shard past it answers
  /// DeadlineExceeded.
  virtual Result<LookupResult> Lookup(
      const std::string& query, size_t k, std::chrono::milliseconds remaining,
      const filter::FilterPredicate& filter) = 0;

  /// Owner-shard mutations through the global-statistics API
  /// (MutableFuzzyIndex::UpsertGlobal / DeleteGlobal): fill `delta` with
  /// what the other shards must fold in and return this shard's epoch.
  virtual Result<uint64_t> UpsertGlobal(uint64_t doc_id,
                                        const std::string& value,
                                        const filter::AttrSet& attrs,
                                        index::GlobalDelta* delta) = 0;
  virtual Result<uint64_t> DeleteGlobal(uint64_t doc_id,
                                        index::GlobalDelta* delta) = 0;

  /// Folds another shard's mutation into this shard's global statistics;
  /// returns this shard's epoch afterwards.
  virtual Result<uint64_t> ApplyGlobalDelta(const index::GlobalDelta& delta) = 0;

  /// Rebuilds the global statistics from every live value in the cluster.
  virtual Status ResetGlobalStats(const std::vector<std::string>& values) = 0;

  /// This shard's live (doc_id, value) pairs.
  virtual Result<std::vector<std::pair<uint64_t, std::string>>> LiveDocs() = 0;

  /// Seal / compact this shard; return its epoch afterwards.
  virtual Result<uint64_t> Seal() = 0;
  virtual Result<uint64_t> Compact() = 0;
  virtual Result<uint64_t> Epoch() = 0;

  /// Loads `records` (all owned by this shard) in one publish; the caller
  /// rebuilds the global statistics afterwards. In-process shards only: a
  /// shard server is filled over the wire, one upsert at a time.
  virtual Status BulkLoad(const std::vector<std::pair<uint64_t, std::string>>&) {
    return Status::Invalid("bulk load needs in-process shards");
  }
};

/// \brief A long-lived, thread-safe fuzzy-lookup service over one
/// index::MutableFuzzyIndex — the online face of the paper's §6
/// record-lookup scenario, now over a mutable corpus. It is the whole
/// Backend of a single-index server (standalone, shard server, follower)
/// and one shard of an in-process fan-out.
///
/// Concurrency model: the service owns no thread. Each Lookup runs
/// MutableFuzzyIndex::LookupAt on the calling thread, so concurrency equals
/// the number of caller threads, bounded by one admission limit
/// (`max_queue` lookups in flight).
///
/// Every call pins the index current at its start; a lookup pins it under
/// the admission lock, then captures that index's published epoch and runs
/// against exactly that epoch (LookupAt), reading each match's value from
/// the same epoch. So a lookup is internally consistent even while writers
/// mutate the index, and a follower can swap in a freshly replicated index
/// (Replace) under running lookups: the old one lives until the last call
/// that pinned it returns. The `serve.*` metrics belong to the service and
/// keep counting across a swap.
///
/// Overload policy: when `max_queue` lookups are already in flight, Lookup
/// returns Unavailable immediately (load shedding); when a request's
/// deadline has expired by the time it would start LookupAt, it completes
/// with DeadlineExceeded without touching the index. Nothing ever queues.
class LookupService final : public Backend, public ShardClient {
 public:
  /// Takes ownership of a mutable index (created, or opened from a data dir).
  static Result<std::unique_ptr<LookupService>> Create(
      std::unique_ptr<index::MutableFuzzyIndex> index,
      const LookupServiceOptions& options);

  ~LookupService() override;
  LookupService(const LookupService&) = delete;
  LookupService& operator=(const LookupService&) = delete;

  /// The best `k` matches for `query` (see MutableFuzzyIndex::LookupAt),
  /// each with its value, or:
  ///  - Unavailable        if `max_queue` lookups are in flight or the
  ///    service is shutting down,
  ///  - DeadlineExceeded   if `deadline` elapsed before LookupAt would start;
  ///    a negative `deadline` (already expired at the call) is rejected on
  ///    entry (deadline zero = no deadline).
  /// A non-empty `filter` restricts matches to records whose attributes
  /// satisfy the predicate (bit-identical to post-filtering an unfiltered
  /// lookup). Runs on the calling thread; safe to call from any number of
  /// threads concurrently.
  Result<LookupResult> Lookup(
      const std::string& query, size_t k,
      std::chrono::milliseconds deadline = std::chrono::milliseconds::zero(),
      const filter::FilterPredicate& filter = {}) override;

  /// \name Mutations and maintenance on the current index
  /// Each returns the index's epoch after it.
  /// @{
  Result<uint64_t> Upsert(uint64_t doc_id, const std::string& value,
                          const filter::AttrSet& attrs) override {
    return Mutate([&](auto& idx) { return idx.Upsert(doc_id, value, attrs); });
  }
  Result<uint64_t> Delete(uint64_t doc_id) override {
    return Mutate([&](auto& idx) { return idx.Delete(doc_id); });
  }
  Result<uint64_t> UpsertGlobal(uint64_t doc_id, const std::string& value,
                                const filter::AttrSet& attrs,
                                index::GlobalDelta* delta) override {
    return Mutate([&](auto& idx) {
      return idx.UpsertGlobal(doc_id, value, attrs, delta);
    });
  }
  Result<uint64_t> DeleteGlobal(uint64_t doc_id,
                                index::GlobalDelta* delta) override {
    return Mutate([&](auto& idx) { return idx.DeleteGlobal(doc_id, delta); });
  }
  Result<uint64_t> ApplyGlobalDelta(const index::GlobalDelta& delta) override {
    return Mutate([&](auto& idx) { return idx.ApplyGlobalDelta(delta); });
  }
  Result<uint64_t> Seal() override {
    return Mutate([](auto& idx) { return idx.Seal(); });
  }
  Result<uint64_t> Compact() override {
    return Mutate([](auto& idx) { return idx.Compact(); });
  }
  /// @}
  Status ResetGlobalStats(const std::vector<std::string>& values) override {
    return index()->ResetGlobalStats(values);
  }
  Status BulkLoad(
      const std::vector<std::pair<uint64_t, std::string>>& records) override {
    return index()->BulkLoad(records);
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> LiveDocs() override {
    return index()->LiveDocs();
  }
  Result<uint64_t> Epoch() override { return index()->epoch(); }

  /// `, "stats": {...}`: the service's counters and latency quantiles.
  std::string StatsFields() override { return ", \"stats\": " + Stats().ToJson(); }

  /// Consistent-enough point-in-time counters and latency quantiles, read
  /// from the `serve.*` metrics of metrics().
  StatsSnapshot Stats() const;

  /// This service's own registry, linked into obs::Registry::Global():
  /// the `serve.*` counters, the `serve.in_flight` gauge and the latency
  /// and lifecycle histograms.
  obs::Registry& metrics() { return metrics_; }

  /// The index current now, pinned: it stays alive while the caller holds
  /// it, even across a Replace.
  std::shared_ptr<index::MutableFuzzyIndex> index() const {
    std::lock_guard<std::mutex> lock(mu_);
    return index_;
  }

  /// Serves `index` (non-null) from now on — a follower's swap to a freshly
  /// replicated epoch. Calls already running finish on the index they
  /// pinned, which is destroyed when the last of them returns.
  void Replace(std::unique_ptr<index::MutableFuzzyIndex> index);

  /// Stops admitting lookups (new ones get Unavailable), then waits until
  /// every admitted lookup has answered, so destroying the service never
  /// races a LookupAt. Idempotent; called by the destructor.
  void Shutdown();

  /// Test hook invoked by every admitted lookup between capturing its epoch
  /// and the deadline re-check — lets tests hold callers in flight to
  /// saturate admission or expire a deadline deterministically. Set it
  /// before any concurrent Lookup call (it is not synchronized). Not for
  /// production use.
  void SetLookupHookForTest(std::function<void()> hook) {
    lookup_hook_ = std::move(hook);
  }

 private:
  LookupService(std::unique_ptr<index::MutableFuzzyIndex> index,
                const LookupServiceOptions& options);

  /// Takes one of the `max_queue` in-flight slots and pins the current
  /// index, or returns Unavailable.
  Result<std::shared_ptr<index::MutableFuzzyIndex>> Admit();
  /// Returns an admitted lookup's slot and wakes a waiting Shutdown.
  void Release();
  /// Runs a mutation on the current index; its epoch afterwards.
  template <typename Fn>
  Result<uint64_t> Mutate(Fn&& mutation) {
    std::shared_ptr<index::MutableFuzzyIndex> pinned = index();
    SSJOIN_RETURN_NOT_OK(mutation(*pinned));
    return pinned->epoch();
  }

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

  /// Guards the served index, admission (`stopping_`) and every change to
  /// `in_flight_`, which Shutdown waits on through `drained_cv_`.
  mutable std::mutex mu_;
  std::shared_ptr<index::MutableFuzzyIndex> index_;
  std::condition_variable drained_cv_;
  bool stopping_ = false;
  /// Lookups admitted and not yet answered; at most `max_queue`. Changed
  /// only under `mu_`; a gauge, so Stats reads it without the lock.
  obs::Gauge* const in_flight_;
  std::function<void()> lookup_hook_;
};

}  // namespace ssjoin::serve

#endif  // SSJOIN_SERVE_LOOKUP_SERVICE_H_
