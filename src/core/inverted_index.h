#ifndef SSJOIN_CORE_INVERTED_INDEX_H_
#define SSJOIN_CORE_INVERTED_INDEX_H_

#include <algorithm>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "core/sets.h"
#include "kernels/kernels.h"

namespace ssjoin::core {

/// \brief Inverted index over a SetStore's sets (or prefixes):
/// element -> sorted list of containing groups. This is the hash table of
/// the equi-join on B that all indexed SSJoin executors build (core/ssjoin.cc
/// and the approx tier's exact fallback), and each index::Segment's postings
/// for lookups. Construction is a two-pass counting scan over the store's
/// flat token column; Lookup is const and safe to call concurrently.
class InvertedIndex {
 public:
  InvertedIndex() = default;
  InvertedIndex(const SetStore& store, size_t num_elements) {
    offsets_.assign(num_elements + 1, 0);
    for (text::TokenId e : store.token_ids()) ++offsets_[e + 1];
    for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    lists_.resize(offsets_.back());
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (GroupId g = 0; g < store.num_groups(); ++g) {
      for (text::TokenId e : store.elements(g)) lists_[cursor[e]++] = g;
    }
  }

  /// Groups containing element `e`, in increasing group id.
  std::pair<const GroupId*, const GroupId*> Lookup(text::TokenId e) const {
    return {lists_.data() + offsets_[e], lists_.data() + offsets_[e + 1]};
  }

  size_t total_postings() const { return lists_.size(); }
  /// Element ids [0, num_elements()) have a list; Lookup takes no other id.
  size_t num_elements() const {
    return offsets_.empty() ? 0 : offsets_.size() - 1;
  }

 private:
  std::vector<uint32_t> offsets_;
  std::vector<GroupId> lists_;
};

/// \brief Per-worker epoch-marked dense "seen" array over S-groups: O(1)
/// candidate dedup per probe (kernels::ProbePostings), reset in O(1) per
/// R-group by bumping the epoch. Reused across the morsels a worker runs.
struct ProbeScratch {
  std::vector<uint32_t> seen;
  uint32_t epoch = 0;
  std::vector<GroupId> cands;
  /// The probes' kernel counts; flushed once per morsel.
  kernels::KernelTally tally;

  void EnsureSize(size_t num_groups) {
    if (seen.size() < num_groups) seen.resize(num_groups, 0);
  }
  uint32_t NextEpoch() {
    if (++epoch == 0) {  // wrapped: stale marks could alias, clear them
      std::fill(seen.begin(), seen.end(), 0);
      epoch = 1;
    }
    return epoch;
  }
};

/// Largest element id appearing in either relation (0 when both are empty):
/// one linear pass over each store's contiguous token column.
inline size_t MaxElementId(const SetsRelation& r, const SetsRelation& s) {
  size_t max_id = 0;
  for (text::TokenId e : r.store.token_ids()) {
    max_id = std::max<size_t>(max_id, e);
  }
  for (text::TokenId e : s.store.token_ids()) {
    max_id = std::max<size_t>(max_id, e);
  }
  return max_id;
}

}  // namespace ssjoin::core

#endif  // SSJOIN_CORE_INVERTED_INDEX_H_
