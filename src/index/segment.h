#ifndef SSJOIN_INDEX_SEGMENT_H_
#define SSJOIN_INDEX_SEGMENT_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "core/inverted_index.h"
#include "core/set_store.h"
#include "filter/attr.h"
#include "text/dictionary.h"

namespace ssjoin::index {

/// Sentinel local index for a doc_id a segment only tombstones (the doc's
/// body, if any, lives in an older segment).
inline constexpr uint32_t kNoLocalDoc = UINT32_MAX;

/// The only segment file version read or written; files of any other
/// version (the attribute-less v1 included) are rejected.
inline constexpr uint32_t kSegmentVersion = 2;
inline constexpr size_t kSegmentHeaderSize = 16;

/// A doc_id's state within one segment: the local index of its latest
/// version appended here (kNoLocalDoc if none) and whether a delete was the
/// last operation touching it in this segment.
struct DocState {
  uint32_t last_local = kNoLocalDoc;
  bool deleted = false;
};

/// \brief One generation of a MutableFuzzyIndex: doc ids, their raw values,
/// their canonical element sets (global-dictionary ids, CSR layout) and the
/// per-doc_id state map that resolves winners across generations.
///
/// The same type serves as the append-only mutable tail (the writer appends
/// under its mutex and copies the segment on every epoch publish) and, after
/// sealing, as an immutable generation shared between epochs by shared_ptr.
/// A data directory holding one sealed segment is the on-disk form of a
/// whole reference table (what `ssjoin_cli snapshot` writes).
/// `BuildPostings` materializes the inverted index used for candidate
/// generation: a core::InvertedIndex over `sets`, the same CSR layout the
/// batch SSJoin executors probe, mapping each element to its local doc
/// indexes in ascending order. It is built at freeze/load time, never
/// serialized.
///
/// Tombstones (doc_states entries with `deleted`) are persisted with sealed
/// segments: a delete recorded in generation j must keep suppressing copies
/// of the doc in generations < j after a restart. Full compaction folds all
/// generations into one and drops them.
struct Segment {
  uint64_t serial = 0;
  std::vector<uint64_t> doc_ids;
  std::vector<std::string> values;
  /// Structured attributes per local doc (parallel to `values`; empty sets
  /// for docs without attributes).
  std::vector<filter::AttrSet> attrs;
  core::SetStore sets;
  std::unordered_map<uint64_t, DocState> doc_states;

  size_t num_docs() const { return doc_ids.size(); }
  bool empty() const { return doc_ids.empty() && doc_states.empty(); }
  size_t num_tombstones() const { return tombstone_count_; }

  /// Appends one document version. `elements` must be canonical (sorted by
  /// id, duplicate-free).
  void AppendDoc(uint64_t doc_id, std::string value,
                 std::span<const text::TokenId> elements,
                 filter::AttrSet doc_attrs = {});

  /// Records a delete: the latest state of `doc_id` in this segment becomes
  /// "deleted" (also suppressing any copy in older segments).
  void RecordDelete(uint64_t doc_id);

  /// Indexes `sets` into the postings (sized by the largest element id + 1),
  /// groups the docs into attribute classes and caches the tombstone count.
  /// Call once the segment stops mutating; calling it again rebuilds all
  /// three.
  void BuildPostings();

  /// Local doc indexes containing element `e` (ascending); empty for an id
  /// past the indexed range (a token interned after BuildPostings, or any id
  /// of a segment without docs). O(1). Valid only after BuildPostings.
  std::span<const uint32_t> Postings(text::TokenId e) const {
    if (e >= postings_.num_elements()) return {};
    auto [begin, end] = postings_.Lookup(e);
    return {begin, end};
  }

  /// Docs with equal attribute sets share an attribute class, a dense id in
  /// [0, num_attr_classes()), so a filtered lookup can test its predicate
  /// once per class it meets, on the class's `class_attrs`, instead of once
  /// per candidate. Valid only after BuildPostings.
  uint32_t attr_class(uint32_t local) const { return attr_class_[local]; }
  size_t num_attr_classes() const { return class_reps_.size(); }
  const filter::AttrSet& class_attrs(uint32_t c) const {
    return attrs[class_reps_[c]];
  }

  /// Serialized segment file: magic, version, payload, FNV-1a trailer.
  /// Layout (integers little-endian): [0, 8) magic "SSJSEGV1", [8, 12)
  /// version (kSegmentVersion), [12, 16) flags (zero), then the payload
  /// (serial, doc ids, values, the SetStore's CSR offsets and token ids,
  /// tombstoned doc ids, per-doc attribute sets) and an 8-byte FNV-1a
  /// checksum over the payload.
  std::string EncodeFile() const;

  /// Decodes, validates (magic/version/checksum/CSR invariants, every
  /// element id < `num_elements`, the dictionary's size) and rebuilds
  /// doc_states and postings. The id check runs before the postings are
  /// sized, so a corrupt id cannot turn into a huge allocation.
  static Result<Segment> DecodeFile(std::string_view bytes, size_t num_elements);

 private:
  core::InvertedIndex postings_;
  std::vector<uint32_t> attr_class_;
  std::vector<uint32_t> class_reps_;  // per class: its first local
  size_t tombstone_count_ = 0;
};

}  // namespace ssjoin::index

#endif  // SSJOIN_INDEX_SEGMENT_H_
