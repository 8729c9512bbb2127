#ifndef SSJOIN_INDEX_MUTABLE_INDEX_H_
#define SSJOIN_INDEX_MUTABLE_INDEX_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <span>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/sets.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/manifest.h"
#include "index/segment.h"
#include "index/wal.h"
#include "obs/metrics.h"
#include "text/tokenizer.h"

namespace ssjoin::index {

/// Knobs of a MutableFuzzyIndex.
struct MutableIndexOptions {
  /// Tokenization / similarity options (validated by Create and Open).
  MatchOptions match;
  /// Data directory for the manifest, sealed segment files and the WAL.
  /// Empty = purely in-memory (no durability; Seal/Compact still work).
  std::string data_dir;
  /// Auto-seal the tail once it holds this many docs (0 = only explicit
  /// Seal calls).
  size_t seal_threshold = 256;
  /// Auto-compact once the sealed generation count exceeds this
  /// (0 = only explicit Compact calls).
  size_t max_generations = 4;
};

/// The effect of one owner-shard mutation on the cluster-wide IDF
/// statistics: the raw document value that stopped being live and/or the one
/// that became live. Raw values (not token ids) travel between shards so
/// each shard tokenizes and interns with its own dictionary — token id
/// spaces never have to agree, only token *content* does.
struct GlobalDelta {
  std::optional<std::string> removed;
  std::optional<std::string> added;
};

/// Per-segment winner flags: flag[local] is 1 iff that local is its doc's
/// live version (not superseded by a newer upsert, not deleted).
using WinnerFlags = std::vector<uint8_t>;

/// Per-segment set weights: column[local] is the sum of one epoch's weights
/// over that local's elements (wt(s), the norm the lookup's bounds read).
using SetWeightColumn = std::vector<double>;

/// One epoch's immutable read view: the per-element IDF weights and
/// liveness flags frozen at publish time, the tie keys (append-only, shared
/// until the vocabulary grows), plus the segment list (sealed generations
/// shared by pointer, the tail copied and frozen), each segment's winner
/// flags (a sealed generation's shared until a mutation touches it) and each
/// segment's set-weight column (a sealed generation's shared until a weight
/// of one of its elements moves). Lookups against one EpochState are
/// bit-identical no matter how the index mutates afterwards.
struct EpochState {
  uint64_t epoch = 0;
  uint64_t live_docs = 0;
  double unseen_weight = 0.0;
  core::WeightVector weights;
  std::shared_ptr<const std::vector<uint64_t>> tie_keys;
  std::vector<uint8_t> live;
  std::vector<std::shared_ptr<const Segment>> segments;
  // Per segment, parallel to `segments`:
  std::vector<std::shared_ptr<const WinnerFlags>> winners;
  std::vector<std::shared_ptr<const SetWeightColumn>> set_weights;
};

/// \brief The fuzzy-lookup index of the paper's §6 record-lookup scenario
/// ("composing the SSJoin operator with the top-k operator"), incrementally
/// mutable: an append-only mutable tail over sealed immutable generations,
/// with tombstones for deletes, epoch-numbered atomically-published read
/// snapshots, an append-only WAL and a manifest for durability. A whole
/// reference table is one BulkLoad followed by Seal: a single sealed
/// generation, which is also the on-disk snapshot format.
///
/// ## Equivalence contract
/// After ANY sequence of Upsert/Delete/Seal/Compact calls, Lookup results
/// are bitwise identical — ids, similarity doubles and order — to
/// fuzz::BruteForceLookup over the live records sorted by ascending doc_id,
/// an index-free oracle that tests every record exactly. Three mechanisms
/// carry the proof:
///   1. IDF weights are quantized to multiples of 2^-26 (text::QuantizeWeight),
///      making every weighted sum exact and therefore independent of
///      summation order — token-id numbering drops out.
///   2. The query prefix is ranked by decreasing weight with ties broken by
///      content hash, so its choice does not depend on the id space.
///   3. Acceptance is exact: text::ResemblanceAtLeast decides
///      overlap >= alpha * union on the quantized sums with no epsilon, so
///      any sound candidate set yields the same matches. Lookup probes only
///      the query prefix (TrimSortedToPrefix; by Lemma 1, J >= alpha
///      implies overlap >= alpha * wt(q), so every match meets it) and skips
///      the verify of a candidate whose positional bound — the weight of
///      the query from its first shared prefix position on, capped at its
///      own set weight — fails the same exact test (the PPJoin positional
///      filter).
///
/// ## Concurrency
/// All mutations serialize on a writer mutex and finish by publishing a new
/// EpochState with a pointer swap — readers never take the writer lock
/// (they copy the published pointer under a mutex held only for that copy
/// or the swap, and share the token dictionary under a shared_mutex only
/// while encoding the query). A publish costs O(delta) when the weights'
/// inputs n and mode are unchanged (a replace, a seal, a global delta that
/// keeps the cluster's doc count): it copies the previous weights and
/// recomputes only the elements whose df changed, patches the set-weight
/// columns of the sealed generations holding them, and copies and indexes
/// the tail. An insert of a new id, a delete, a mode switch or
/// ResetGlobalStats changes every weight and costs O(vocabulary + sealed
/// elements). Batch ingest should use BulkLoad, which publishes once.
///
/// ## Durability (data_dir set)
/// Every mutation appends to the WAL (flushed before it is applied). Seal
/// writes the tail as a segment file, rotates the WAL and atomically
/// rewrites the manifest; Open() restores the sealed state from the
/// manifest (validating per-segment checksums) and replays unsealed WAL
/// records, skipping stale ones. A kill at any point loses at most the
/// record being written when the process died.
class MutableFuzzyIndex {
 public:
  /// One lookup result: the document's caller-assigned id plus the exact
  /// Jaccard resemblance.
  struct Match {
    uint64_t id;
    double similarity;
  };

  /// Point-in-time structural counters, read from the `index.*` metrics of
  /// metrics() (not atomically across fields).
  struct Stats {
    uint64_t epoch = 0;
    uint64_t sealed_segments = 0;
    uint64_t tail_docs = 0;
    uint64_t tombstones = 0;
    uint64_t live_docs = 0;
    uint64_t upserts = 0;
    uint64_t deletes = 0;
    uint64_t seals = 0;
    uint64_t compactions = 0;
    /// Publishes that recomputed every weight (n, mode or global statistics
    /// changed wholesale) instead of only the dirty elements'.
    uint64_t full_publishes = 0;
  };

  /// Creates an empty index. With a data_dir, initializes the directory
  /// (fresh WAL + manifest); fails if it already holds a manifest — use
  /// Open for that. Invalid match options are rejected (MatchOptions::
  /// Validate).
  static Result<std::unique_ptr<MutableFuzzyIndex>> Create(
      const MutableIndexOptions& options);

  /// Restores an index from `options.data_dir`: loads the manifest,
  /// validates and decodes every sealed segment, replays unsealed WAL
  /// records and publishes the recovered epoch. Match options come from the
  /// manifest (the caller's `options.match` is ignored) and are validated
  /// like Create's.
  static Result<std::unique_ptr<MutableFuzzyIndex>> Open(
      const MutableIndexOptions& options);

  MutableFuzzyIndex(const MutableFuzzyIndex&) = delete;
  MutableFuzzyIndex& operator=(const MutableFuzzyIndex&) = delete;

  /// Inserts or replaces the document `doc_id` (optionally with structured
  /// attributes), then publishes a new epoch. An upsert always replaces the
  /// whole attribute set — re-upserting without attributes clears them.
  Status Upsert(uint64_t doc_id, const std::string& value,
                const filter::AttrSet& attrs = {});

  /// Deletes `doc_id` (a no-op tombstone if absent), then publishes.
  Status Delete(uint64_t doc_id);

  /// Upserts many records with a single epoch publish at the end — the bulk
  /// ingest path (a load changes n, so its publish recomputes every weight
  /// and set-weight column; per-record publishing would make loading
  /// quadratic). `attrs` is empty (no attributes) or parallel to `records`.
  Status BulkLoad(const std::vector<std::pair<uint64_t, std::string>>& records,
                  const std::vector<filter::AttrSet>& attrs = {});

  /// Seals the tail into an immutable generation; with a data_dir this
  /// writes the segment file, rotates the WAL and rewrites the manifest.
  /// A no-op (manifest refresh only) when the tail is empty.
  Status Seal();

  /// Merges every generation plus the tail into one sealed generation,
  /// dropping all tombstones. Lookup results are unchanged.
  Status Compact();

  /// The current epoch's read view. Never null; cheap (one pointer copy).
  std::shared_ptr<const EpochState> Snapshot() const {
    std::lock_guard<std::mutex> lock(published_mu_);
    return published_;
  }

  /// Lookup against the current epoch. See the equivalence contract above.
  std::vector<Match> Lookup(const std::string& query, size_t k) const;

  /// Lookup pinned to an explicit epoch (e.g. one captured at request
  /// entry, so the match values are read from the epoch that scored them).
  std::vector<Match> LookupAt(const EpochState& state, const std::string& query,
                              size_t k) const;

  /// Filtered lookup: every similarity candidate whose attributes fail
  /// `filter.Matches` is dropped BEFORE its positional bound and verify, so
  /// ineligible docs never reach the verify loop. Results are bit-identical
  /// to running the unfiltered lookup with unbounded k, dropping records
  /// whose attributes fail `filter.Matches`, and truncating to `k` — the
  /// contract the `filtered_lookup` fuzz scenario enforces. An empty filter
  /// is byte-identical to the unfiltered overload.
  std::vector<Match> LookupAt(const EpochState& state, const std::string& query,
                              size_t k,
                              const filter::FilterPredicate& filter) const;

  /// The live value of `doc_id` in the given epoch, if any.
  std::optional<std::string> ValueAt(const EpochState& state,
                                     uint64_t doc_id) const;

  /// The live attribute set of `doc_id` in the given epoch, if the doc is
  /// live (an attribute-less doc yields an empty set).
  std::optional<filter::AttrSet> AttrsAt(const EpochState& state,
                                         uint64_t doc_id) const;

  /// Recomputes `state`'s derived columns from scratch and compares them bit
  /// for bit: the weights, liveness flags and unseen weight from df counted
  /// over the epoch's live docs (its winner flags) — or, in global-stats
  /// mode, over `cluster_values`, every value live in the cluster at that
  /// epoch — the tie keys from the dictionary, and every segment's
  /// set-weight column from the direct sum of the epoch's weights. The
  /// consistency check the tests and the churn fuzz scenarios run after each
  /// mutation; OK or the first difference.
  Status CheckEpochState(
      const EpochState& state,
      const std::vector<std::string>* cluster_values = nullptr) const;

  /// \name Global-statistics mode (sharded serving)
  ///
  /// A shard holds only its slice of the documents, but bit-identity with an
  /// unsharded index requires every weight input — live-document count n,
  /// per-token document frequency, token liveness — to be the CLUSTER-WIDE
  /// value. The methods below latch the index into global mode: published
  /// epochs draw n/df/live from a cluster-wide accumulator fed by raw
  /// document values, while the local postings keep holding only this
  /// shard's documents. Every value that is live anywhere in the cluster is
  /// tokenized and *interned* here, so a query token that exists only on
  /// another shard still classifies as "known" exactly as the oracle would.
  ///
  /// Caller contract (enforced by shard::ShardedLookupIndex): once any
  /// Global call is made, ALL mutations must go through the Global API (the
  /// owner shard via UpsertGlobal/DeleteGlobal, every other shard via
  /// ApplyGlobalDelta), and after BulkLoad or Open the accumulator must be
  /// rebuilt with ResetGlobalStats over every live value in the cluster.
  /// Global statistics are deliberately not persisted — restart rebuilds
  /// them from the shards' durable live sets, so the manifest format is
  /// untouched.
  /// @{

  /// Owner-shard upsert: applies the document locally (WAL-logged like
  /// Upsert), folds the value change into the global accumulator, publishes
  /// once, and reports what changed via `delta` for broadcast to the other
  /// shards. Attributes stay owner-local: they never affect IDF weights, so
  /// the broadcast delta carries only raw values.
  Status UpsertGlobal(uint64_t doc_id, const std::string& value,
                      const filter::AttrSet& attrs, GlobalDelta* delta);

  /// Owner-shard delete; see UpsertGlobal.
  Status DeleteGlobal(uint64_t doc_id, GlobalDelta* delta);

  /// Non-owner shard: folds another shard's mutation into the global
  /// accumulator (no local documents change) and publishes a new epoch.
  Status ApplyGlobalDelta(const GlobalDelta& delta);

  /// Rebuilds the global accumulator from scratch over `values` (every live
  /// value in the whole cluster, this shard's included) with one publish.
  Status ResetGlobalStats(const std::vector<std::string>& values);

  /// This shard's live (doc_id, value) pairs in ascending doc_id order —
  /// the input other shards need for ResetGlobalStats after a restart.
  std::vector<std::pair<uint64_t, std::string>> LiveDocs() const;

  /// Whether a Global call has latched this index into global-stats mode.
  bool global_stats_enabled() const;

  /// @}

  uint64_t epoch() const { return Snapshot()->epoch; }
  const text::Tokenizer& tokenizer() const { return *tokenizer_; }
  const MutableIndexOptions& options() const { return options_; }

  Stats GetStats() const;

  /// This index's own registry, linked into obs::Registry::Global(): the
  /// `index.*` write-path counters and histograms, and gauges of the
  /// published epoch's shape, set at every publish (seals and compactions
  /// publish too).
  obs::Registry& metrics() { return metrics_; }

 private:
  static constexpr uint32_t kTailSegment = UINT32_MAX;

  struct DocLoc {
    uint32_t segment;  // index into sealed_, or kTailSegment
    uint32_t local;
  };

  explicit MutableFuzzyIndex(const MutableIndexOptions& options);

  Status ApplyUpsert(uint64_t doc_id, const std::string& value,
                     const filter::AttrSet& attrs, bool log_wal);
  Status ApplyDelete(uint64_t doc_id, bool log_wal);
  /// Tokenizes `value`, interning new tokens, and returns the sorted unique
  /// token ids. Requires writer_mu_.
  std::vector<text::TokenId> EncodeValueLocked(const std::string& value);
  /// Folds one live value into / out of the global accumulator. Requires
  /// writer_mu_; callers publish afterwards.
  void GlobalAddLocked(const std::string& value);
  void GlobalRemoveLocked(const std::string& value);
  /// Folds `delta` into the global accumulator and publishes.
  void ApplyGlobalDeltaLocked(const GlobalDelta& delta);
  /// The currently live value of `doc_id`, if any. Requires writer_mu_.
  std::optional<std::string> LiveValueLocked(uint64_t doc_id) const;
  /// Removes `doc_id` from the live set (doc map + df + live count); returns
  /// whether it was live.
  bool RemoveLive(uint64_t doc_id);
  /// Records that the df of each of `elements` changed since the last
  /// publish. Requires writer_mu_.
  void MarkDirtyLocked(std::span<const text::TokenId> elements);
  std::span<const text::TokenId> ElementsOf(const DocLoc& loc) const;

  /// Builds and atomically publishes the next EpochState: O(delta) from the
  /// previous epoch when n and the df source are unchanged, else every
  /// weight and set-weight column recomputed.
  void PublishLocked();
  Status SealLocked();
  Status CompactLocked();
  /// Writes the manifest for the current sealed state; `obsolete_files` are
  /// removed after the manifest rename commits.
  Status PersistSealedLocked(const std::vector<std::string>& obsolete_files);
  /// Writes the newly sealed `seg`'s file, rotates the WAL and persists the
  /// manifest, retiring the old WAL with `obsolete_files`. No-op in memory.
  Status PersistSegmentLocked(const Segment& seg,
                              std::vector<std::string> obsolete_files);
  /// Applies the seal and compaction thresholds inline, after a mutation.
  void MaybeMaintainLocked();

  /// Clears the winner flag of `loc`, first copying a sealed generation's
  /// flags that a published epoch may still read. Requires writer_mu_.
  void ClearWinnerLocked(const DocLoc& loc);
  /// Sorts element ids into increasing epoch-order rank: decreasing weight,
  /// ties by content hash then id — the comparator of
  /// ElementOrder::ByDecreasingWeightTieKeyed.
  static void SortByEpochRank(const EpochState& state,
                              std::vector<text::TokenId>* elements);

  MutableIndexOptions options_;
  std::unique_ptr<text::Tokenizer> tokenizer_;
  /// The writer's tokenize scratch (EncodeValueLocked). Guarded by
  /// writer_mu_.
  std::string encode_buffer_;
  std::vector<std::string_view> encode_tokens_;

  /// Guards the dictionary: readers (query encoding) shared, the writer
  /// exclusive while interning. Taken after writer_mu_, never before.
  mutable std::shared_mutex dict_mu_;
  text::TokenDictionary dict_;

  /// Serializes all mutation, sealing and publishing.
  mutable std::mutex writer_mu_;
  std::vector<std::shared_ptr<const Segment>> sealed_;
  /// Manifest entries mirroring sealed_ (file name + checksum per
  /// generation); only populated when a data_dir is set.
  std::vector<ManifestSegmentRef> seg_refs_;
  Segment tail_;
  std::vector<uint64_t> df_live_;
  uint64_t live_docs_ = 0;
  /// Global-stats mode (see the Global API section): when latched, published
  /// epochs compute weights from these cluster-wide accumulators instead of
  /// the local df_live_/live_docs_.
  bool global_mode_ = false;
  std::vector<uint64_t> df_global_;
  uint64_t global_live_docs_ = 0;
  std::unordered_map<uint64_t, DocLoc> doc_map_;
  /// Winner flags mirroring doc_map_: one array per sealed generation
  /// (parallel to sealed_) plus the tail's. `sealed_winners_shared_[i]`
  /// marks an array handed to a published epoch; the writer copies it before
  /// its next write, so publish never copies sealed flags.
  std::vector<std::shared_ptr<WinnerFlags>> sealed_winners_;
  std::vector<uint8_t> sealed_winners_shared_;
  WinnerFlags tail_winners_;
  /// Elements whose df (local or global) changed since the last publish,
  /// each listed once (`dirty_flags_[e]` set while listed).
  std::vector<text::TokenId> dirty_;
  std::vector<uint8_t> dirty_flags_;
  /// The n the published weights were computed with, and whether the next
  /// publish must recompute every weight anyway (no epoch yet, a mode
  /// switch, ResetGlobalStats).
  uint64_t published_n_ = 0;
  bool weights_stale_ = true;
  uint64_t epoch_ = 0;
  uint64_t next_seq_ = 1;
  uint64_t last_sealed_seq_ = 0;
  uint64_t next_serial_ = 1;
  std::optional<WalWriter> wal_;
  std::string wal_file_;

  /// The published epoch. A plain mutex, not std::atomic<std::shared_ptr>:
  /// libstdc++'s load() releases that type's internal lock with relaxed
  /// ordering, so ThreadSanitizer reports a lookup racing a publish.
  mutable std::mutex published_mu_;
  std::shared_ptr<const EpochState> published_;

  obs::Registry metrics_{&obs::Registry::Global()};
  obs::Gauge* const epoch_gauge_;
  obs::Gauge* const segments_gauge_;
  obs::Gauge* const tail_docs_gauge_;
  obs::Gauge* const tombstones_gauge_;
  obs::Gauge* const live_docs_gauge_;
  obs::Counter* const upserts_;
  obs::Counter* const deletes_;
  obs::Counter* const seals_;
  obs::Counter* const compactions_;
  obs::Counter* const full_publishes_;
  obs::Histogram* const publish_us_;
  obs::Histogram* const compaction_us_;
};

}  // namespace ssjoin::index

#endif  // SSJOIN_INDEX_MUTABLE_INDEX_H_
