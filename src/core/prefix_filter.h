#ifndef SSJOIN_CORE_PREFIX_FILTER_H_
#define SSJOIN_CORE_PREFIX_FILTER_H_

#include <span>
#include <vector>

#include "core/order.h"
#include "core/predicate.h"
#include "core/sets.h"
#include "exec/exec_context.h"

namespace ssjoin::core {

/// \brief `prefix_beta(s)` of §4.2: the shortest prefix of `set` in
/// increasing `order`-rank whose element weights sum to **more than** `beta`.
///
/// Returns element ids (not sorted by id — sorted by rank). If the whole
/// set's weight is <= beta, the whole set is returned (no filtering).
/// A clearly negative beta (beta < -epsilon) means the caller's required
/// overlap exceeds the set's total weight: the group can never satisfy the
/// predicate and the prefix is empty (the group is pruned). A beta within
/// floating-point noise of zero conservatively yields a one-element prefix.
std::vector<text::TokenId> ComputePrefix(std::span<const text::TokenId> set,
                                         const WeightVector& weights,
                                         const ElementOrder& order, double beta);

/// \brief In-place variant for hot per-group loops: `*out` is overwritten
/// with the prefix, reusing its capacity across calls.
void ComputePrefixInto(std::span<const text::TokenId> set,
                       const WeightVector& weights, const ElementOrder& order,
                       double beta, std::vector<text::TokenId>* out);

/// \brief The accumulation step of ComputePrefix, split out for callers that
/// sort by an equivalent comparator instead of a materialized ElementOrder
/// (the mutable index sorts by per-epoch weights + content tie keys):
/// `*set` must already be in increasing order-rank and is trimmed in place
/// to the prefix, with bit-identical cut decisions to ComputePrefixInto.
void TrimSortedToPrefix(const WeightVector& weights, double beta,
                        std::vector<text::TokenId>* set);

/// \brief The prefix-filtered image of a whole relation, stored as a flat
/// CSR SetStore (group g's prefix is `prefixes.view(g)`, in rank order):
/// for group g, `prefixes.view(g)` = prefix_{beta_g}(rel.set(g)) where
/// `beta_g = wt(set(g)) - required_g` and `required_g` is the predicate's
/// one-side overlap bound for that group (OverlapPredicate::RSideRequired /
/// SSideRequired). Groups whose required overlap exceeds their total weight
/// can never join and get an empty prefix (they are pruned).
struct PrefixFilteredRelation {
  SetStore prefixes;

  size_t total_prefix_elements() const { return prefixes.total_elements(); }
};

/// Which side of the predicate a relation plays (determines whether
/// RSideRequired or SSideRequired supplies beta).
enum class JoinSide { kR, kS };

/// \brief Applies the prefix filter to every group of `rel` (§4.2, extended
/// to normalized predicates per the bullets at the end of that section).
/// Groups are filtered in morsels under `ec`; the per-morsel stores are
/// concatenated in morsel order, so the layout is the same at any thread
/// count.
PrefixFilteredRelation PrefixFilterRelation(const SetsRelation& rel,
                                            const WeightVector& weights,
                                            const ElementOrder& order,
                                            const OverlapPredicate& pred,
                                            JoinSide side,
                                            const exec::ExecContext& ec = {});

}  // namespace ssjoin::core

#endif  // SSJOIN_CORE_PREFIX_FILTER_H_
