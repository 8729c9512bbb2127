#include "core/prefix_filter.h"

#include <algorithm>

#include "exec/parallel_for.h"

namespace ssjoin::core {

namespace {

// Tolerance shielding the prune decision from floating-point accumulation
// noise; pruning must only happen when the group provably cannot match.
constexpr double kPruneEps = 1e-6;

}  // namespace

void TrimSortedToPrefix(const WeightVector& weights, double beta,
                        std::vector<text::TokenId>* set) {
  if (beta < -kPruneEps) {  // group can never satisfy the predicate
    set->clear();
    return;
  }
  double cum = 0.0;
  for (size_t i = 0; i < set->size(); ++i) {
    cum += weights[(*set)[i]];
    if (cum > beta + kPruneEps) {
      set->resize(i + 1);
      return;
    }
  }
  // whole set: weights never exceeded beta
}

void ComputePrefixInto(std::span<const text::TokenId> set,
                       const WeightVector& weights, const ElementOrder& order,
                       double beta, std::vector<text::TokenId>* out) {
  out->clear();
  if (beta < -kPruneEps) return;
  out->assign(set.begin(), set.end());
  std::sort(out->begin(), out->end(), [&](text::TokenId a, text::TokenId b) {
    return order.Rank(a) < order.Rank(b);
  });
  TrimSortedToPrefix(weights, beta, out);
}

std::vector<text::TokenId> ComputePrefix(std::span<const text::TokenId> set,
                                         const WeightVector& weights,
                                         const ElementOrder& order, double beta) {
  std::vector<text::TokenId> out;
  ComputePrefixInto(set, weights, order, beta, &out);
  return out;
}

PrefixFilteredRelation PrefixFilterRelation(const SetsRelation& rel,
                                            const WeightVector& weights,
                                            const ElementOrder& order,
                                            const OverlapPredicate& pred,
                                            JoinSide side,
                                            const exec::ExecContext& ec) {
  std::vector<SetStore> morsel_stores(exec::NumMorsels(ec, rel.num_groups()));
  std::vector<std::vector<text::TokenId>> scratch(
      exec::NumWorkers(ec, rel.num_groups()));
  exec::ParallelFor(ec, rel.num_groups(),
                    [&](size_t worker, size_t m, size_t begin, size_t end) {
                      std::vector<text::TokenId>& prefix = scratch[worker];
                      for (size_t g = begin; g < end; ++g) {
                        double required =
                            side == JoinSide::kR
                                ? pred.RSideRequired(rel.norms[g])
                                : pred.SSideRequired(rel.norms[g]);
                        double beta = rel.set_weights[g] - required;
                        ComputePrefixInto(rel.set(static_cast<GroupId>(g)),
                                          weights, order, beta, &prefix);
                        morsel_stores[m].AppendSet(prefix);
                      }
                    });
  PrefixFilteredRelation out;
  size_t total = 0;
  for (const SetStore& store : morsel_stores) total += store.total_elements();
  out.prefixes.Reserve(rel.num_groups(), total);
  for (const SetStore& store : morsel_stores) out.prefixes.AppendStore(store);
  return out;
}

}  // namespace ssjoin::core
