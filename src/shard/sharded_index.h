#ifndef SSJOIN_SHARD_SHARDED_INDEX_H_
#define SSJOIN_SHARD_SHARDED_INDEX_H_

#include <chrono>
#include <cstdint>
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
#include "serve/lookup_service.h"
#include "shard/router.h"
#include "shard/shard_client.h"

namespace ssjoin::shard {

/// Hedging knobs of the scatter-gather, whatever the shards are.
struct FanoutOptions {
  /// Hedged retries: when > 0 and a shard has not answered this long after
  /// dispatch, a duplicate lookup is issued against it and the first answer
  /// wins. 0 disables hedging.
  std::chrono::milliseconds hedge_delay{0};
  /// A shard whose first answer lands later than this counts as a straggler
  /// in `shard.stragglers`; 0 falls back to hedge_delay (so hedging and
  /// straggler accounting share one bar unless told otherwise).
  std::chrono::milliseconds straggler_threshold{0};
};

/// Knobs of an in-process ShardedLookupIndex (Create / Open).
struct ShardedIndexOptions {
  /// Number of hash partitions (>= 1). Fixed for the life of a data dir:
  /// re-opening with a different count is refused (routing would disagree
  /// with where the documents actually live).
  uint32_t num_shards = 1;
  /// Tokenization / similarity options, shared by every shard.
  index::MatchOptions match;
  /// Root data directory; shard i persists under `<data_dir>/shard-<i>`.
  /// Empty = purely in-memory.
  std::string data_dir;
  size_t seal_threshold = 256;
  size_t max_generations = 4;
  /// Per-shard LookupService knobs (the admission bound), applied to every
  /// shard's service.
  serve::LookupServiceOptions service;
  FanoutOptions fanout;
};

/// \brief N-way hash-partitioned fuzzy lookup: one scatter-gather over N
/// ShardClients, each owning the documents ShardOf routes to it. The shards
/// are in-process (Create / Open: a serve::LookupService over a
/// MutableFuzzyIndex) or shard-server processes (Connect: RemoteShard). It is
/// the serve::Backend of ssjoin_served's --shards and --coordinator modes.
///
/// ## The shard-count invariance contract
/// For ANY shard count N, Lookup results are bit-identical (ids, scores and
/// order) to one unsharded MutableFuzzyIndex over the same live records —
/// which is itself bit-identical to fuzz::BruteForceLookup. Three
/// facts carry the proof:
///   1. Every weight input is global: shards run in global-stats mode (see
///      MutableFuzzyIndex's Global API), so n, per-token document frequency
///      and token liveness — hence every weight, every prefix and the exact
///      quantized similarity of every (query, doc) pair — are the same
///      numbers the unsharded index computes. A shard holds only its own
///      postings, so it scores exactly the subset of documents it owns.
///   2. The hash partition is disjoint and exhaustive, so per-shard result
///      sets never overlap and their union over all shards equals the
///      unsharded candidate set. Each shard returns its top-k, and any
///      document in the global top-k is in its own shard's top-k (ranks
///      only shrink when other shards' documents are removed).
///   3. The merge re-sorts the union with the index's exact comparator
///      (similarity desc, id asc — total, since ids are unique) and
///      truncates to k, reproducing the unsharded sort byte for byte.
/// Remote shards keep it because scores cross the wire as hex floats.
/// Enforced by differential unit tests (N ∈ {1, 2, 3, 8}, fresh and
/// WAL-replayed), the `sharded_lookup` fuzz scenario and an end-to-end test
/// against shard-server processes.
///
/// ## Deadline budgeting
/// Lookup computes an absolute deadline on entry; each shard dispatch is
/// given the budget REMAINING at its own dispatch time (ceil to ms, min 1ms)
/// rather than the caller's original allowance, so time burned before or
/// between dispatches — and before a hedge — is charged, never re-granted.
/// A budget that reaches zero fails the lookup with DeadlineExceeded.
///
/// ## Failure semantics
/// Strict by default: if any shard fails, the lookup fails with that
/// shard's status (a silent partial merge would break bit-identity).
/// `allow_degraded` (Connect / FromShards only) drops unreachable shards
/// instead — Unavailable or IOError: a dead process, a refused or torn
/// connection — and marks the answer degraded; deadline and application
/// errors still fail. It is the multi-process tier's choice, where a dead
/// shard is a process an operator can observe. In-process shards are always
/// strict: a LookupService's Unavailable means an overloaded or stopping
/// service, never a lost partition. No reachable shard at all is
/// Unavailable.
///
/// ## Cluster epoch
/// Epoch() is the sum of the shard epochs. A mutation applies on its owner
/// shard, broadcasts a non-empty global-stats delta (a delete of an absent
/// id has none) and returns the sum after that, so it never decreases.
class ShardedLookupIndex final : public serve::Backend {
 public:
  /// Creates an empty N-shard in-process index (with a data_dir:
  /// initializes per-shard subdirectories plus a SHARDS file recording N).
  static Result<std::unique_ptr<ShardedLookupIndex>> Create(
      const ShardedIndexOptions& options);

  /// Reopens a sharded data dir: validates the SHARDS file against
  /// `options.num_shards` (0 = take the persisted count), opens every shard
  /// (WAL replay included) and rebuilds the global statistics from the
  /// shards' live documents — global stats are never persisted.
  static Result<std::unique_ptr<ShardedLookupIndex>> Open(
      const ShardedIndexOptions& options);

  /// Scatter-gathers over shard-server processes, one unix socket per shard
  /// (position = shard id, as ShardOf routes). `admin_timeout` bounds every
  /// wire call without a caller deadline (zero = wait forever). Nothing is
  /// sent on connect: run Resync after a shard process restarts.
  static Result<std::unique_ptr<ShardedLookupIndex>> Connect(
      const std::vector<std::string>& sockets,
      std::chrono::milliseconds admin_timeout, const FanoutOptions& fanout,
      bool allow_degraded);

  /// Scatter-gathers over the given clients as they are (no statistics are
  /// rebuilt). Create, Open and Connect end here; tests pass fakes.
  static Result<std::unique_ptr<ShardedLookupIndex>> FromShards(
      std::vector<std::unique_ptr<ShardClient>> shards,
      const FanoutOptions& fanout, bool allow_degraded);

  ShardedLookupIndex(const ShardedLookupIndex&) = delete;
  ShardedLookupIndex& operator=(const ShardedLookupIndex&) = delete;

  /// Scatter-gathers the best k matches across all shards. See the contract
  /// above; deadline zero = no deadline. A non-empty `filter` fans out to
  /// every shard, where each restricts its own candidates — attributes are
  /// owner-local, so the filtered merge stays bit-identical to a filtered
  /// unsharded lookup (filtering removes candidates, never reweights them).
  /// `degraded` is true when an unreachable shard was left out of the merge.
  Result<serve::LookupResult> Lookup(
      const std::string& query, size_t k,
      std::chrono::milliseconds deadline = std::chrono::milliseconds::zero(),
      const filter::FilterPredicate& filter = {}) override;

  /// Routed mutations: the owner shard applies the document and a non-empty
  /// global-stats delta is broadcast to every other shard, keeping all
  /// published weights cluster-accurate. Every shard must be reachable.
  /// Returns the cluster epoch afterwards. Serialized internally.
  /// Attributes never join the delta — they do not affect IDF weights and
  /// stay on the owner shard.
  Result<uint64_t> Upsert(uint64_t doc_id, const std::string& value,
                          const filter::AttrSet& attrs = {}) override;
  Result<uint64_t> Delete(uint64_t doc_id) override;

  /// Partitions `records` across shards, bulk-loads each, then rebuilds the
  /// global statistics everywhere (one publish per shard). In-process
  /// shards only.
  Status BulkLoad(const std::vector<std::pair<uint64_t, std::string>>& records);

  /// Re-derives every shard's global statistics from the union of all
  /// shards' live documents — the recovery step after a shard restart.
  Status Resync();

  /// Seal / compact every shard; return the cluster epoch afterwards.
  Result<uint64_t> Seal() override {
    return SumOverShards(&ShardClient::Seal);
  }
  Result<uint64_t> Compact() override {
    return SumOverShards(&ShardClient::Compact);
  }

  /// Sum of shard epochs: advances on every mutation anywhere, giving
  /// clients one monotone progress number for the whole cluster.
  Result<uint64_t> Epoch() override {
    return SumOverShards(&ShardClient::Epoch);
  }

  /// `, "shards": N, "stats": {...}`: the `shard.*` figures as one flat
  /// object (the per-shard `serve.*` figures stay in the metrics export).
  std::string StatsFields() override;

  uint32_t num_shards() const { return static_cast<uint32_t>(shards_.size()); }

  /// Shard `i`'s client (position = shard id, as ShardOf routes).
  ShardClient& shard(uint32_t i) const { return *shards_[i]; }

  /// The fan-out's own `shard.*` figures, in a registry linked into
  /// obs::Registry::Global().
  obs::Registry& metrics() { return metrics_; }

 private:
  ShardedLookupIndex(std::vector<std::unique_ptr<ShardClient>> shards,
                     const FanoutOptions& fanout, bool allow_degraded);

  /// Both require mutation_mu_. BroadcastLocked sends an owner's delta to
  /// every other shard and returns the cluster epoch.
  Status ResyncLocked();
  Result<uint64_t> BroadcastLocked(uint32_t owner, uint64_t owner_epoch,
                                   const index::GlobalDelta& delta);
  /// Runs `op` on every shard in id order, under mutation_mu_ so that no
  /// sum straddles a broadcast; the sum of the epochs returned.
  Result<uint64_t> SumOverShards(Result<uint64_t> (ShardClient::*op)());

  std::vector<std::unique_ptr<ShardClient>> shards_;
  FanoutOptions fanout_;
  bool allow_degraded_;

  /// Serializes mutations so the owner-apply + broadcast pair is atomic with
  /// respect to other mutations (lookups never take this).
  std::mutex mutation_mu_;

  obs::Registry metrics_{&obs::Registry::Global()};
  obs::Counter* const lookups_;           // scatter-gather lookups served
  obs::Counter* const fanouts_;           // per-shard sub-lookups issued
  obs::Counter* const failed_lookups_;    // lookups failed by a shard error
  obs::Counter* const deadline_rejects_;  // budget exhausted at/after entry
  obs::Counter* const hedges_;            // hedged retries issued
  obs::Counter* const hedge_wins_;        // hedges that answered first
  obs::Counter* const stragglers_;        // shards past the straggler bar
  obs::Counter* const degraded_;          // partial (shard-down) responses
  obs::Histogram* const latency_us_;      // full scatter-gather wall time
  obs::Histogram* const slowest_us_;      // slowest shard per lookup
  obs::Histogram* const merge_us_;        // merge + truncate step
};

/// Installs the fan-out's own op on `handler`: `resync` (Resync), answered
/// with {"ok": true, "resynced": true}.
void InstallResync(serve::Handler* handler, ShardedLookupIndex* sharded);

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_SHARDED_INDEX_H_
