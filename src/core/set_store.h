#ifndef SSJOIN_CORE_SET_STORE_H_
#define SSJOIN_CORE_SET_STORE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "common/result.h"
#include "text/dictionary.h"

namespace ssjoin::core {

/// Index of a group (a distinct R.A / S.A value) within a SetStore.
using GroupId = uint32_t;

/// \brief Cheap non-owning view of one group's element list inside a
/// SetStore. Converts implicitly to `std::span<const text::TokenId>` so it
/// plugs into every merge/overlap routine; carries its GroupId so callers
/// can flow a view through a pipeline without a parallel index variable.
///
/// Views borrow from the owning SetStore and are invalidated by any mutation
/// of it (Append*, Clear, move) — the usual span lifetime rules.
class SetView {
 public:
  constexpr SetView() = default;
  constexpr SetView(std::span<const text::TokenId> elems, GroupId group)
      : elems_(elems), group_(group) {}

  constexpr const text::TokenId* data() const { return elems_.data(); }
  constexpr size_t size() const { return elems_.size(); }
  constexpr bool empty() const { return elems_.empty(); }
  constexpr auto begin() const { return elems_.begin(); }
  constexpr auto end() const { return elems_.end(); }
  constexpr text::TokenId operator[](size_t i) const { return elems_[i]; }
  constexpr std::span<const text::TokenId> elems() const { return elems_; }
  constexpr operator std::span<const text::TokenId>() const { return elems_; }
  constexpr GroupId group() const { return group_; }

 private:
  std::span<const text::TokenId> elems_;
  GroupId group_ = 0;
};

/// \brief Flat CSR (compressed sparse row) storage for a collection of sets:
/// `offsets` has `num_groups + 1` entries and group g's elements live in
/// `token_ids[offsets[g], offsets[g+1])`. One allocation per column instead
/// of one per group — sequential scans walk contiguous memory, snapshots
/// serialize the arrays verbatim, and a future mmap load is a cast away.
///
/// The store itself does not require sortedness — SetsRelation stores
/// canonical (sorted, unique) sets, PrefixFilteredRelation stores prefixes
/// in rank order. Offsets are uint32_t by design: builders reject inputs
/// with more than UINT32_MAX groups or total elements instead of silently
/// truncating.
class SetStore {
 public:
  SetStore() : offsets_(1, 0) {}

  size_t num_groups() const { return offsets_.size() - 1; }
  /// O(1): the CSR tail offset is the total element count.
  size_t total_elements() const { return offsets_.back(); }

  SetView view(GroupId g) const { return SetView(elements(g), g); }

  std::span<const text::TokenId> elements(GroupId g) const {
    return {token_ids_.data() + offsets_[g],
            token_ids_.data() + offsets_[g + 1]};
  }

  /// \name Raw columns (serialization, index building)
  /// @{
  const std::vector<uint32_t>& offsets() const { return offsets_; }
  const std::vector<text::TokenId>& token_ids() const { return token_ids_; }
  /// @}

  /// Pre-sizes the columns for `groups` groups / `elements` total elements.
  void Reserve(size_t groups, size_t elements) {
    offsets_.reserve(groups + 1);
    token_ids_.reserve(elements);
  }

  /// Appends one group holding `elems` (copied). Callers must have bounded
  /// group/element counts to uint32 range (see CheckCapacity).
  void AppendSet(std::span<const text::TokenId> elems) {
    token_ids_.insert(token_ids_.end(), elems.begin(), elems.end());
    offsets_.push_back(static_cast<uint32_t>(token_ids_.size()));
  }

  /// Appends every group of `other` in order, preserving contents.
  void AppendStore(const SetStore& other) {
    token_ids_.insert(token_ids_.end(), other.token_ids_.begin(),
                      other.token_ids_.end());
    uint32_t base = offsets_.back();
    for (size_t g = 1; g < other.offsets_.size(); ++g) {
      offsets_.push_back(base + other.offsets_[g]);
    }
  }

  void Clear() {
    offsets_.assign(1, 0);
    token_ids_.clear();
  }

  /// Fails when `groups` groups / `elements` total elements would overflow
  /// the uint32 CSR offsets (silent truncation is never acceptable).
  static Status CheckCapacity(size_t groups, size_t elements);

  /// Reassembles a store from raw columns (typically deserialized),
  /// validating the CSR invariants: offsets non-empty, starting at 0,
  /// monotone non-decreasing, ending at token_ids.size().
  static Result<SetStore> FromParts(std::vector<uint32_t> offsets,
                                    std::vector<text::TokenId> token_ids);

  friend bool operator==(const SetStore& a, const SetStore& b) {
    return a.offsets_ == b.offsets_ && a.token_ids_ == b.token_ids_;
  }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<text::TokenId> token_ids_;
};

}  // namespace ssjoin::core

#endif  // SSJOIN_CORE_SET_STORE_H_
