#ifndef SSJOIN_SHARD_SHARDED_INDEX_H_
#define SSJOIN_SHARD_SHARDED_INDEX_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "serve/lookup_service.h"
#include "shard/metrics.h"
#include "shard/router.h"

namespace ssjoin::shard {

/// Knobs of a ShardedLookupIndex.
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
  /// Per-shard LookupService knobs (admission bound, cache), applied to
  /// every shard's service.
  serve::LookupServiceOptions service;
  /// Hedged retries: when > 0 and a shard has not answered this long after
  /// dispatch, a duplicate lookup is issued against it and the first answer
  /// wins. 0 disables hedging.
  std::chrono::milliseconds hedge_delay{0};
  /// A shard whose first answer lands later than this counts as a straggler
  /// in `shard.stragglers`; 0 falls back to hedge_delay (so hedging and
  /// straggler accounting share one bar unless told otherwise).
  std::chrono::milliseconds straggler_threshold{0};
};

/// \brief N-way hash-partitioned fuzzy lookup: each shard owns a
/// MutableFuzzyIndex + LookupService over its slice of the documents, and
/// Lookup scatter-gathers the per-shard top-k into a global top-k.
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
/// Enforced by differential unit tests (N ∈ {1, 2, 3, 8}, fresh and
/// WAL-replayed) and the `sharded_lookup` fuzz scenario.
///
/// ## Deadline budgeting
/// Lookup computes an absolute deadline on entry; each shard dispatch is
/// given the budget REMAINING at its own dispatch time (ceil to ms, min 1ms)
/// rather than the caller's original allowance, so time burned before or
/// between dispatches — and before a hedge — is charged, never re-granted.
/// A budget that reaches zero fails the lookup with DeadlineExceeded.
///
/// ## Failure semantics
/// Strict: if any shard fails, the lookup fails with that shard's status (a
/// partial merge would break bit-identity silently). Degraded partial
/// responses are a coordinator-level policy for the multi-process tier,
/// where a dead shard is a process you can observe and advertise.
class ShardedLookupIndex {
 public:
  using Match = index::MutableFuzzyIndex::Match;

  /// Creates an empty N-shard index (with a data_dir: initializes per-shard
  /// subdirectories plus a SHARDS file recording N).
  static Result<std::unique_ptr<ShardedLookupIndex>> Create(
      const ShardedIndexOptions& options);

  /// Reopens a sharded data dir: validates the SHARDS file against
  /// `options.num_shards` (0 = take the persisted count), opens every shard
  /// (WAL replay included) and rebuilds the global statistics from the
  /// shards' live documents — global stats are never persisted.
  static Result<std::unique_ptr<ShardedLookupIndex>> Open(
      const ShardedIndexOptions& options);

  ~ShardedLookupIndex();
  ShardedLookupIndex(const ShardedLookupIndex&) = delete;
  ShardedLookupIndex& operator=(const ShardedLookupIndex&) = delete;

  /// Scatter-gathers the best k matches across all shards. See the contract
  /// above; deadline zero = no deadline. A non-empty `filter` fans out to
  /// every shard, where each restricts its own candidates — attributes are
  /// owner-local, so the filtered merge stays bit-identical to a filtered
  /// unsharded lookup (filtering removes candidates, never reweights them).
  Result<std::vector<Match>> Lookup(
      const std::string& query, size_t k,
      std::chrono::milliseconds deadline = std::chrono::milliseconds::zero(),
      const filter::FilterPredicate& filter = {});

  /// Routed mutations: the owner shard applies the document and the
  /// resulting global-stats delta is broadcast to every other shard, keeping
  /// all published weights cluster-accurate. Serialized internally.
  /// Attributes never join the delta — they do not affect IDF weights and
  /// stay on the owner shard.
  Status Upsert(uint64_t doc_id, const std::string& value,
                const filter::AttrSet& attrs = {});
  Status Delete(uint64_t doc_id);

  /// Partitions `records` across shards, bulk-loads each, then rebuilds the
  /// global statistics everywhere (one publish per shard).
  Status BulkLoad(const std::vector<std::pair<uint64_t, std::string>>& records);

  Status Seal();     // every shard
  Status Compact();  // every shard

  /// The current live value of `doc_id`, resolved on its owner shard.
  std::optional<std::string> ValueOf(uint64_t doc_id) const;

  /// Sum of shard epochs: advances on every mutation anywhere, giving
  /// clients one monotone progress number for the whole cluster.
  uint64_t epoch() const;

  uint32_t num_shards() const { return num_shards_; }
  serve::LookupService* shard_service(uint32_t i) { return services_[i].get(); }

  /// Aggregated per-shard service counters (sums across shards).
  serve::StatsSnapshot Stats() const;

 private:
  explicit ShardedLookupIndex(const ShardedIndexOptions& options);

  /// One shard sub-lookup with remaining-budget propagation.
  Result<std::vector<Match>> LookupShard(uint32_t si, const std::string& query,
                                         size_t k, bool has_deadline,
                                         std::chrono::steady_clock::time_point
                                             abs_deadline,
                                         const filter::FilterPredicate& filter);

  /// Re-derives every shard's global statistics from the union of all
  /// shards' live documents. Requires mutation_mu_.
  Status RebuildGlobalStatsLocked();

  ShardedIndexOptions options_;
  uint32_t num_shards_ = 1;
  std::vector<std::unique_ptr<serve::LookupService>> services_;

  /// Serializes mutations so the owner-apply + broadcast pair is atomic with
  /// respect to other mutations (lookups never take this).
  mutable std::mutex mutation_mu_;

  ShardMetrics metrics_;
  std::atomic<uint64_t> provider_id_{0};
};

}  // namespace ssjoin::shard

#endif  // SSJOIN_SHARD_SHARDED_INDEX_H_
