#ifndef SSJOIN_SHARD_SHARD_CLIENT_H_
#define SSJOIN_SHARD_SHARD_CLIENT_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "serve/lookup_service.h"
#include "serve/wire.h"

namespace ssjoin::shard {

/// The per-shard interface, declared with its in-process implementation
/// (serve::LookupService).
using serve::ShardClient;

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
/// shard-server ops on the handler of a single-index server, answering
/// from `service`.
///   - `slookup`: `lookup` with exact hex-float scores and netstring values;
///   - `upsert` / `delete` with `"global": true`: owner-side mutations that
///     report the replaced value (`had_prev`, `prev`);
///   - `gstats` (fold a global-stats delta), `gstats_reset` (rebuild them
///     from netstring-packed values), `dump` (live docs), `getvalue`.
void InstallShardServerOps(serve::Handler* handler,
                           serve::LookupService* service);

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_SHARD_CLIENT_H_
