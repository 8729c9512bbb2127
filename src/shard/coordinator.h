#ifndef SSJOIN_SHARD_COORDINATOR_H_
#define SSJOIN_SHARD_COORDINATOR_H_

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "shard/metrics.h"
#include "shard/router.h"

namespace ssjoin::shard {

/// Knobs of a Coordinator.
struct CoordinatorOptions {
  /// One shard-server unix socket per shard; position IS the shard id, so the
  /// list must match the ShardOf routing every writer used.
  std::vector<std::string> shard_sockets;
  /// Hedged retries, as in ShardedIndexOptions (0 disables).
  std::chrono::milliseconds hedge_delay{0};
  std::chrono::milliseconds straggler_threshold{0};
  /// When true, a shard that cannot be reached (dead process, refused
  /// connection, torn connection) is dropped from the merge and the response
  /// is marked degraded instead of failing — the operator-facing behavior
  /// when a shard is killed. Deadline and application errors still fail.
  bool allow_degraded = true;
  /// Wire budget for mutations, resync and other administrative calls, which
  /// carry no caller deadline. Zero = wait forever.
  std::chrono::milliseconds admin_timeout{30000};
};

/// One match as reported over the wire (value included, so the coordinator
/// never needs a second round trip to render results).
struct WireMatch {
  uint64_t id = 0;
  double similarity = 0.0;
  std::string value;
};

/// A scatter-gather response plus its completeness: `degraded` is true when
/// at least one unreachable shard was excluded from the merge.
struct CoordinatorLookup {
  std::vector<WireMatch> matches;
  bool degraded = false;
  uint32_t shards_ok = 0;
};

/// \brief Multi-process scatter-gather front end: each shard is a separate
/// ssjoin_served process (single mode, which carries the shard-server wire
/// ops) and the coordinator fans lookups out over their sockets.
///
/// Same contract as the in-process ShardedLookupIndex — remaining-deadline
/// propagation (each dispatch and each hedge gets the budget left NOW),
/// hedged retries, `shard.*` metrics — with two wire-specific differences:
///   - Scores cross as hex-float literals and values as netstrings, so a
///     non-degraded merge stays bit-identical to the unsharded oracle.
///   - Failure policy is configurable: a dead shard process yields a
///     degraded partial response when `allow_degraded` (counted in
///     `shard.degraded`), because over sockets a dead peer is an observable
///     operational fact rather than a silent correctness bug.
///
/// Mutations route to the owner shard (global mode: the owner returns the
/// replaced value), then broadcast the global-stats delta to every other
/// shard; all shards must be reachable, else the mutation fails. Resync
/// rebuilds every shard's global statistics from a full cluster dump — run
/// it after a shard process restarts (its rebuilt stats cover only its own
/// slice until then).
class Coordinator {
 public:
  static Result<std::unique_ptr<Coordinator>> Create(
      const CoordinatorOptions& options);

  ~Coordinator();
  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  /// A non-empty `filter` rides the slookup fan-out as its canonical JSON
  /// (`"filter": {...}`), so every shard applies the identical predicate and
  /// the merged result matches a filtered unsharded lookup bit for bit.
  Result<CoordinatorLookup> Lookup(
      const std::string& query, size_t k,
      std::chrono::milliseconds deadline = std::chrono::milliseconds::zero(),
      const filter::FilterPredicate& filter = {});

  /// Routed mutations; the returned epoch is the cluster epoch (sum of every
  /// shard's epoch after the broadcast). Attributes travel only to the owner
  /// shard — they never affect global statistics.
  Result<uint64_t> Upsert(uint64_t doc_id, const std::string& value,
                          const filter::AttrSet& attrs = {});
  Result<uint64_t> Delete(uint64_t doc_id);

  /// Dumps every shard's live documents and resets every shard's global
  /// statistics from the union — the recovery step after a shard restart.
  Status Resync();

  /// Broadcasts one no-payload op ("seal", "compact") to every shard.
  Status Broadcast(const std::string& op);

  /// Sum of the shards' epochs (admin round trip to every shard).
  Result<uint64_t> ClusterEpoch();

  uint32_t num_shards() const {
    return static_cast<uint32_t>(options_.shard_sockets.size());
  }

 private:
  explicit Coordinator(const CoordinatorOptions& options);

  /// One shard sub-lookup over a fresh connection, with the remaining
  /// budget computed at dispatch.
  Result<std::vector<WireMatch>> LookupShard(
      uint32_t si, const std::string& query, size_t k, bool has_deadline,
      std::chrono::steady_clock::time_point abs_deadline,
      const filter::FilterPredicate& filter);

  CoordinatorOptions options_;
  std::mutex mutation_mu_;
  ShardMetrics metrics_;
  std::atomic<uint64_t> provider_id_{0};
};

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_COORDINATOR_H_
