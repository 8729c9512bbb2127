#ifndef SSJOIN_CORE_SETS_H_
#define SSJOIN_CORE_SETS_H_

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/result.h"
#include "core/set_store.h"
#include "exec/exec_context.h"
#include "text/dictionary.h"
#include "text/weights.h"

namespace ssjoin::core {

/// Dense per-element weights, indexed by text::TokenId. The core executors
/// work on this materialized form rather than virtual WeightProvider calls;
/// build one with MaterializeWeights.
using WeightVector = std::vector<double>;

/// \brief The normalized input of the SSJoin operator: one weighted set per
/// group (per distinct A-value), in First Normal Form conceptually — stored
/// as one flat CSR SetStore plus per-group norm columns.
///
/// `set(g)` is canonical (sorted by element id, duplicate-free; multiset
/// occurrences were made distinct by ordinal encoding upstream).
/// `norms[g]` is the group's norm column (Figure 1): by default the set's
/// weight, but callers may supply e.g. string lengths.
/// `set_weights[g]` caches wt(set(g)).
struct SetsRelation {
  SetStore store;
  std::vector<double> norms;
  std::vector<double> set_weights;

  size_t num_groups() const { return store.num_groups(); }

  /// Total number of (group, element) rows in the 1NF representation.
  /// O(1): the CSR offsets' tail entry.
  size_t total_elements() const { return store.total_elements(); }

  /// Group g's canonical element list as a borrowing view.
  SetView set(GroupId g) const { return store.view(g); }
};

/// \brief Encoded documents in CSR form, as the Prep encoder emits them:
/// document d holds `ids[offsets[d], offsets[d + 1])`, in token order.
struct EncodedDocs {
  std::vector<uint32_t> offsets = {0};
  std::vector<text::TokenId> ids;

  size_t num_docs() const { return offsets.size() - 1; }
  std::span<const text::TokenId> doc(size_t d) const {
    return {ids.data() + offsets[d], ids.data() + offsets[d + 1]};
  }
};

/// \brief Materializes provider weights for all elements of a dictionary.
WeightVector MaterializeWeights(const text::TokenDictionary& dict,
                                const text::WeightProvider& provider);

/// \brief Builds a SetsRelation from encoded documents, in place.
///
/// Each document is canonicalized (sorted, deduplicated — duplicates cannot
/// normally occur after ordinal encoding) and its weight summed in
/// ascending id order, per morsel of `exec` into pre-sized slots; the CSR
/// columns then become the store, compacted only if a duplicate was
/// dropped. The result is the same at every thread count. If `norms` is
/// provided it must have one entry per document; otherwise norms default to
/// set weights. Documents holding an id without a weight (kInvalidToken
/// included) are rejected.
Result<SetsRelation> BuildSetsRelation(EncodedDocs docs, const WeightVector& weights,
                                       std::optional<std::vector<double>> norms,
                                       const exec::ExecContext& exec);

/// \brief Adapter for nested id vectors: flattens `docs` into EncodedDocs
/// and builds on one thread. Inputs exceeding the uint32 CSR capacity
/// (> UINT32_MAX groups or total elements) are rejected.
Result<SetsRelation> BuildSetsRelation(
    std::vector<std::vector<text::TokenId>> docs, const WeightVector& weights,
    std::optional<std::vector<double>> norms = std::nullopt);

}  // namespace ssjoin::core

#endif  // SSJOIN_CORE_SETS_H_
