#ifndef SSJOIN_FILTER_BE_INDEX_H_
#define SSJOIN_FILTER_BE_INDEX_H_

#include <cstdint>
#include <map>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "filter/attr.h"
#include "filter/predicate.h"

namespace ssjoin::filter {

/// \brief The eligible-doc set a predicate evaluation produces, in the
/// representation the evaluator picked by selectivity:
///
///  - kAll:    empty predicate — every local is eligible (no work).
///  - kNone:   nothing matches — the caller skips the segment outright.
///  - kList:   a sorted unique local-id list; candidates are looked up
///             by binary search.
///  - kBitmap: one bit per local; candidates are membership-tested.
///
/// Both materialized forms describe the same set, and FilterSorted keeps
/// the candidate list sorted either way, so the downstream verification
/// order — and therefore every floating-point sum — is bit-identical to
/// exact post-filtering regardless of representation.
class EligibleSet {
 public:
  enum class Kind : uint8_t { kAll = 0, kNone = 1, kList = 2, kBitmap = 3 };

  static EligibleSet All();
  static EligibleSet None();
  /// Chooses kList or kBitmap from the density |locals| / universe (dense
  /// sets pay for O(1) membership words; sparse sets stay compact).
  /// `locals` must be sorted and unique, each < universe.
  static EligibleSet FromSorted(std::vector<uint32_t> locals,
                                uint32_t universe);

  Kind kind() const { return kind_; }
  /// Number of eligible locals; universe size for kAll.
  size_t count() const { return count_; }
  bool Contains(uint32_t local) const;

  /// Removes ineligible locals from a sorted unique candidate list in
  /// place, preserving order. A non-null `aligned` (one entry per local)
  /// is compacted in step, so entry i keeps describing local i.
  void FilterSorted(std::vector<uint32_t>* locals,
                    std::vector<uint32_t>* aligned = nullptr) const;

 private:
  Kind kind_ = Kind::kAll;
  size_t count_ = 0;
  uint32_t universe_ = 0;
  std::vector<uint32_t> list_;    // kList
  std::vector<uint64_t> bitmap_;  // kBitmap
};

/// \brief BE-index-style inverted attribute index over the docs of one
/// segment (or one immutable index): posting lists of local doc ids keyed
/// by (attribute, value).
///
/// Predicate evaluation is a k-of-n counting match over packed posting
/// entries. Every posting list a conjunct touches is tagged
/// `(conjunct_index << 1) | sign` and its locals are packed into 64-bit
/// entries `local << 32 | tag`; one sort groups the entries by local, and a
/// single scan counts distinct positive conjuncts per local (each doc holds
/// at most one value per attribute, so a conjunct contributes at most one
/// entry per local and plain counting needs no dedup). A local is eligible
/// iff its positive count equals n — the number of positive conjuncts —
/// and no negated entry appears. With n == 0 (NOT-IN-only predicates) the
/// eligible set is the complement of the union of negated postings.
class AttrIndex {
 public:
  AttrIndex() = default;

  /// Builds the posting lists for docs [0, docs.size()); doc i's attributes
  /// are docs[i]. Docs without attributes simply appear in no posting.
  static AttrIndex Build(std::span<const AttrSet> docs);

  /// An index over `doc_count` attribute-less docs — the universe still
  /// matters: NOT-IN-only predicates match every doc of it.
  static AttrIndex Empty(uint32_t doc_count);

  uint32_t doc_count() const { return doc_count_; }
  /// True when no doc carries any attribute (every non-trivial positive
  /// conjunct is then unsatisfiable, but evaluation handles that anyway).
  bool empty() const { return postings_.empty(); }

  /// Sorted local ids holding exactly (name, value); empty when unseen.
  std::span<const uint32_t> Postings(std::string_view name,
                                     const AttrValue& value) const;

  /// Evaluates `pred` over all docs of this index.
  EligibleSet Eval(const FilterPredicate& pred) const;

 private:
  // Key is (name, value); map keeps lookups simple and the build canonical.
  using Key = std::pair<std::string, AttrValue>;
  struct KeyLess {
    bool operator()(const Key& a, const Key& b) const {
      if (a.first != b.first) return a.first < b.first;
      return a.second < b.second;
    }
  };

  uint32_t doc_count_ = 0;
  std::map<Key, std::vector<uint32_t>, KeyLess> postings_;
};

}  // namespace ssjoin::filter

#endif  // SSJOIN_FILTER_BE_INDEX_H_
