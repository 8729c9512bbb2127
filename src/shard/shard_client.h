#ifndef SSJOIN_SHARD_SHARD_CLIENT_H_
#define SSJOIN_SHARD_SHARD_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "serve/handler.h"
#include "serve/lookup_service.h"
#include "serve/wire.h"

namespace ssjoin::shard {

/// \brief The per-shard surface a ShardedLookupIndex scatter-gathers over.
///
/// The interface hides the transport: LocalShard calls a LookupService in
/// this process, RemoteShard speaks the shard-server wire ops (served by
/// InstallShardServerOps) over a unix socket, and tests substitute fakes to
/// make the fan-out policies (hedging, degraded reads) deterministic.
/// Methods may be called from several threads at once: lookups from the
/// scatter threads, mutations from one caller at a time.
class ShardClient {
 public:
  virtual ~ShardClient() = default;

  /// The shard's best `k` matches, each with its value so a merge never
  /// needs a second round trip to render results. `remaining` is the budget
  /// left at dispatch (zero = no deadline); a shard past it answers
  /// DeadlineExceeded.
  virtual Result<serve::LookupResult> Lookup(
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

/// One LookupService in this process: a shard of an in-process fan-out
/// (its slice of the documents), and the whole Backend of a single-service
/// server, whose shard-server ops (InstallShardServerOps) answer from it.
/// Lookup attaches each match's value, read from the same epoch the lookup
/// scored against. A follower swaps in a freshly opened service after each
/// replicated epoch (Replace); every call pins the service current at its
/// start.
class LocalShard final : public ShardClient, public serve::Backend {
 public:
  explicit LocalShard(std::shared_ptr<serve::LookupService> service)
      : service_(std::move(service)) {}

  std::shared_ptr<serve::LookupService> service() const {
    std::lock_guard<std::mutex> lock(mu_);
    return service_;
  }
  void Replace(std::shared_ptr<serve::LookupService> service) {
    std::lock_guard<std::mutex> lock(mu_);
    service_ = std::move(service);
  }

  Result<serve::LookupResult> Lookup(
      const std::string& query, size_t k, std::chrono::milliseconds remaining,
      const filter::FilterPredicate& filter) override;
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
  Status ResetGlobalStats(const std::vector<std::string>& values) override {
    return service()->index().ResetGlobalStats(values);
  }
  Result<std::vector<std::pair<uint64_t, std::string>>> LiveDocs() override {
    return service()->index().LiveDocs();
  }
  Status BulkLoad(
      const std::vector<std::pair<uint64_t, std::string>>& records) override {
    return service()->index().BulkLoad(records);
  }
  Result<uint64_t> Upsert(uint64_t doc_id, const std::string& value,
                          const filter::AttrSet& attrs) override {
    return Mutate([&](auto& idx) { return idx.Upsert(doc_id, value, attrs); });
  }
  Result<uint64_t> Delete(uint64_t doc_id) override {
    return Mutate([&](auto& idx) { return idx.Delete(doc_id); });
  }
  Result<uint64_t> Seal() override {
    return Mutate([](auto& idx) { return idx.Seal(); });
  }
  Result<uint64_t> Compact() override {
    return Mutate([](auto& idx) { return idx.Compact(); });
  }
  Result<uint64_t> Epoch() override { return service()->index().epoch(); }
  /// `, "stats": {...}`: the service's counters and latency quantiles.
  std::string StatsFields() override {
    return ", \"stats\": " + service()->Stats().ToJson();
  }

 private:
  /// Runs a mutation on the current service's index; its epoch afterwards.
  template <typename Fn>
  Result<uint64_t> Mutate(Fn&& mutation) {
    std::shared_ptr<serve::LookupService> s = service();
    SSJOIN_RETURN_NOT_OK(mutation(s->index()));
    return s->index().epoch();
  }

  mutable std::mutex mu_;
  std::shared_ptr<serve::LookupService> service_;
};

/// A shard-server process (ssjoin_served in single mode, answering the ops
/// InstallShardServerOps adds) behind a unix socket; every call is one round
/// trip on a fresh connection.
///
/// Scores cross as hex-float literals and values as netstrings, so a merge
/// over remote shards stays bit-identical to the unsharded oracle. A
/// connection that cannot be made or breaks comes back as Unavailable or
/// IOError; an {"ok": false} reply is rehydrated into the shard's own status
/// code, so "deadline exceeded on the shard" stays DeadlineExceeded.
class RemoteShard final : public ShardClient {
 public:
  /// `admin_timeout` bounds every call that carries no caller deadline
  /// (mutations, resync, seal, epoch); zero = wait forever.
  RemoteShard(std::string socket_path, std::chrono::milliseconds admin_timeout)
      : socket_path_(std::move(socket_path)), admin_timeout_(admin_timeout) {}

  Result<serve::LookupResult> Lookup(
      const std::string& query, size_t k, std::chrono::milliseconds remaining,
      const filter::FilterPredicate& filter) override;
  Result<uint64_t> UpsertGlobal(uint64_t doc_id, const std::string& value,
                                const filter::AttrSet& attrs,
                                index::GlobalDelta* delta) override;
  Result<uint64_t> DeleteGlobal(uint64_t doc_id,
                                index::GlobalDelta* delta) override;
  Result<uint64_t> ApplyGlobalDelta(const index::GlobalDelta& delta) override;
  Status ResetGlobalStats(const std::vector<std::string>& values) override;
  Result<std::vector<std::pair<uint64_t, std::string>>> LiveDocs() override;
  Result<uint64_t> Seal() override { return CallForEpoch("{\"op\": \"seal\"}"); }
  Result<uint64_t> Compact() override {
    return CallForEpoch("{\"op\": \"compact\"}");
  }
  Result<uint64_t> Epoch() override {
    return CallForEpoch("{\"op\": \"epoch\"}");
  }

 private:
  /// One round trip on a fresh connection within `timeout` (zero: the
  /// admin timeout); the reply of a shard that answered {"ok": true}.
  Result<std::map<std::string, serve::JsonScalar>> Call(
      const std::string& line,
      std::chrono::milliseconds timeout = std::chrono::milliseconds(0)) const;
  /// Call for an op whose reply carries the shard's "epoch".
  Result<uint64_t> CallForEpoch(const std::string& line) const;

  std::string socket_path_;
  std::chrono::milliseconds admin_timeout_;
};

/// \brief The server half of RemoteShard's protocol: installs the
/// shard-server ops on the handler of a single-service server, answering
/// from `shard`.
///   - `slookup`: `lookup` with exact hex-float scores and netstring values;
///   - `upsert` / `delete` with `"global": true`: owner-side mutations that
///     report the replaced value (`had_prev`, `prev`);
///   - `gstats` (fold a global-stats delta), `gstats_reset` (rebuild them
///     from netstring-packed values), `dump` (live docs), `getvalue`.
void InstallShardServerOps(serve::Handler* handler, LocalShard* shard);

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_SHARD_CLIENT_H_
