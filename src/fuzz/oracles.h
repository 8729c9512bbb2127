#ifndef SSJOIN_FUZZ_ORACLES_H_
#define SSJOIN_FUZZ_ORACLES_H_

#include <string>
#include <vector>

#include "core/predicate.h"
#include "core/sets.h"
#include "core/ssjoin.h"
#include "simjoin/prep.h"
#include "simjoin/types.h"
#include "text/tokenizer.h"

namespace ssjoin::fuzz {

/// \brief Naive cross-product SSJoin oracle: for every (r, s) group pair,
/// merge-intersects the canonical sets, sums the weighted overlap in sorted
/// element order (the same accumulation order every executor uses, so
/// overlaps compare bit-identically), and emits the pair iff the
/// intersection is non-empty and the predicate holds — Definition 1 plus the
/// operator's standing positive-threshold contract, evaluated with no index,
/// no filter and no pruning.
std::vector<core::SSJoinPair> SSJoinOracle(const core::SetsRelation& r,
                                           const core::SetsRelation& s,
                                           const core::WeightVector& weights,
                                           const core::OverlapPredicate& pred);

/// \brief Cross-product Jaccard-containment oracle over prepared sets:
/// every pair with non-empty intersection whose containment passes the
/// SSJoin predicate (the reduction is exact, so this mirrors
/// JaccardContainmentJoin including its tolerance).
std::vector<simjoin::MatchPair> CrossProductJaccardContainment(
    const simjoin::Prepared& prep, double alpha);

/// \brief Cross-product Jaccard-resemblance oracle (mirrors
/// JaccardResemblanceJoin: 2-sided predicate plus the exact JR filter).
std::vector<simjoin::MatchPair> CrossProductJaccardResemblance(
    const simjoin::Prepared& prep, double alpha);

/// \brief Cross-product cosine oracle (mirrors CosineJoin: alpha^2 2-sided
/// predicate plus the exact cosine filter; expects kIdfSquared weights).
std::vector<simjoin::MatchPair> CrossProductCosine(const simjoin::Prepared& prep,
                                                   double alpha);

/// One brute-force lookup result: the index of the matching record plus its
/// Jaccard resemblance.
struct LookupOracleMatch {
  size_t index;
  double similarity;
};

/// \brief Brute-force fuzzy-lookup oracle: interns the (token, ordinal)
/// elements of `records` on its own, computes their quantized IDF weights
/// (unseen query elements weigh log(max(2, n))), and tests EVERY record
/// sharing an element with the query for exact `overlap >= alpha * union`.
/// The exact test is an error-free FMA product, independent of
/// text::ResemblanceAtLeast. Returns the best `k` by (similarity desc,
/// index asc) — the contract both lookup indexes must meet bit for bit.
std::vector<LookupOracleMatch> BruteForceLookup(
    const std::vector<std::string>& records, const text::Tokenizer& tokenizer,
    double alpha, const std::string& query, size_t k);

/// \brief The Property 4 q-gram count bound
/// `max(|s1|,|s2|) - q + 1 - q * budget`, or a negative value when it is
/// non-positive. Pruning on a shared q-gram is sound only when this is >= 1.
long long QGramCountBound(size_t len_r, size_t len_s, size_t q, size_t budget);

/// \brief Restriction of a cross-product edit-join result to pairs where the
/// Property 4 bound is >= 1 — the regime in which the SSJoin q-gram
/// reduction guarantees recall (the documented caveat of EditDistanceJoin /
/// EditSimilarityJoin). `budget_of(len_r, len_s)` is the per-pair edit
/// budget.
template <typename BudgetFn>
std::vector<simjoin::MatchPair> FilterToSoundBound(
    const std::vector<simjoin::MatchPair>& matches,
    const std::vector<std::string>& r, const std::vector<std::string>& s,
    size_t q, const BudgetFn& budget_of) {
  std::vector<simjoin::MatchPair> out;
  for (const simjoin::MatchPair& m : matches) {
    size_t lr = r[m.r].size();
    size_t ls = s[m.s].size();
    if (QGramCountBound(lr, ls, q, budget_of(lr, ls)) >= 1) out.push_back(m);
  }
  return out;
}

}  // namespace ssjoin::fuzz

#endif  // SSJOIN_FUZZ_ORACLES_H_
