#include "fuzz/oracles.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <utility>

#include "kernels/kernels.h"
#include "text/weights.h"

namespace ssjoin::fuzz {

namespace {

/// Weighted overlap of two canonical sets via the pinned scalar kernel tier
/// (the differential oracle), accumulated in sorted element order — matching
/// the executors' accumulation order bit-for-bit while staying independent
/// of whatever tier the executors under test are dispatched to.
double OverlapOf(core::SetView a, core::SetView b,
                 const core::WeightVector& weights) {
  return kernels::IntersectWeightedTier(kernels::Tier::kScalar, a, b,
                                        weights.data(), nullptr);
}

bool Intersects(core::SetView a, core::SetView b) {
  return kernels::IntersectCountTier(kernels::Tier::kScalar, a, b) > 0;
}

/// A (token, ordinal) element — the k-th occurrence of a token in one
/// string (the multiset-to-set conversion of §4.3.1) — keyed by content,
/// so no token dictionary is involved.
using Element = std::pair<std::string, uint32_t>;

std::vector<Element> ElementsOf(const text::Tokenizer& tokenizer,
                                const std::string& s) {
  std::map<std::string, uint32_t> occurrences;
  std::vector<Element> out;
  for (std::string& token : tokenizer.Tokenize(s)) {
    uint32_t ordinal = occurrences[token]++;
    out.emplace_back(std::move(token), ordinal);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Exact `overlap >= alpha * uni` through an error-free product: FMA gives
/// alpha * uni == p + e exactly, and near the boundary (p/2 <= overlap <=
/// 2p) overlap - p is exact by Sterbenz's lemma.
bool AtLeastExactly(double overlap, double uni, double alpha) {
  const double p = alpha * uni;
  const double e = std::fma(alpha, uni, -p);
  if (overlap > 2 * p) return true;
  if (overlap < p / 2) return false;
  return overlap - p >= e;
}

}  // namespace

std::vector<core::SSJoinPair> SSJoinOracle(const core::SetsRelation& r,
                                           const core::SetsRelation& s,
                                           const core::WeightVector& weights,
                                           const core::OverlapPredicate& pred) {
  std::vector<core::SSJoinPair> out;
  for (core::GroupId gr = 0; gr < r.num_groups(); ++gr) {
    for (core::GroupId gs = 0; gs < s.num_groups(); ++gs) {
      core::SetView a = r.set(gr);
      core::SetView b = s.set(gs);
      if (!Intersects(a, b)) continue;
      double overlap = OverlapOf(a, b, weights);
      if (pred.Test(overlap, r.norms[gr], s.norms[gs])) {
        out.push_back({gr, gs, overlap});
      }
    }
  }
  return out;
}

std::vector<simjoin::MatchPair> CrossProductJaccardContainment(
    const simjoin::Prepared& prep, double alpha) {
  core::OverlapPredicate pred = core::OverlapPredicate::OneSidedNormalized(alpha);
  std::vector<simjoin::MatchPair> out;
  for (core::GroupId gr = 0; gr < prep.r.num_groups(); ++gr) {
    for (core::GroupId gs = 0; gs < prep.s().num_groups(); ++gs) {
      core::SetView a = prep.r.set(gr);
      core::SetView b = prep.s().set(gs);
      if (!Intersects(a, b)) continue;
      double overlap = OverlapOf(a, b, prep.weights);
      if (!pred.Test(overlap, prep.r.norms[gr], prep.s().norms[gs])) continue;
      double wt_r = prep.r.set_weights[gr];
      double jc = wt_r > 0.0 ? overlap / wt_r : 1.0;
      out.push_back({gr, gs, jc});
    }
  }
  return out;
}

std::vector<simjoin::MatchPair> CrossProductJaccardResemblance(
    const simjoin::Prepared& prep, double alpha) {
  core::OverlapPredicate pred = core::OverlapPredicate::TwoSidedNormalized(alpha);
  std::vector<simjoin::MatchPair> out;
  for (core::GroupId gr = 0; gr < prep.r.num_groups(); ++gr) {
    for (core::GroupId gs = 0; gs < prep.s().num_groups(); ++gs) {
      core::SetView a = prep.r.set(gr);
      core::SetView b = prep.s().set(gs);
      if (!Intersects(a, b)) continue;
      double overlap = OverlapOf(a, b, prep.weights);
      if (!pred.Test(overlap, prep.r.norms[gr], prep.s().norms[gs])) continue;
      double wt_union =
          prep.r.set_weights[gr] + prep.s().set_weights[gs] - overlap;
      double jr = wt_union > 0.0 ? overlap / wt_union : 1.0;
      if (jr >= alpha - 1e-12) out.push_back({gr, gs, jr});
    }
  }
  return out;
}

std::vector<simjoin::MatchPair> CrossProductCosine(const simjoin::Prepared& prep,
                                                   double alpha) {
  core::OverlapPredicate pred =
      core::OverlapPredicate::TwoSidedNormalized(alpha * alpha);
  std::vector<simjoin::MatchPair> out;
  for (core::GroupId gr = 0; gr < prep.r.num_groups(); ++gr) {
    for (core::GroupId gs = 0; gs < prep.s().num_groups(); ++gs) {
      core::SetView a = prep.r.set(gr);
      core::SetView b = prep.s().set(gs);
      if (!Intersects(a, b)) continue;
      double overlap = OverlapOf(a, b, prep.weights);
      if (!pred.Test(overlap, prep.r.norms[gr], prep.s().norms[gs])) continue;
      double denom =
          std::sqrt(prep.r.set_weights[gr] * prep.s().set_weights[gs]);
      double cos = denom > 0.0 ? overlap / denom : 1.0;
      if (cos >= alpha - 1e-12) out.push_back({gr, gs, cos});
    }
  }
  return out;
}

std::vector<LookupOracleMatch> BruteForceLookup(
    const std::vector<std::string>& records, const text::Tokenizer& tokenizer,
    double alpha, const std::string& query, size_t k) {
  std::vector<std::vector<Element>> sets;
  std::map<Element, uint64_t> df;
  for (const std::string& record : records) {
    sets.push_back(ElementsOf(tokenizer, record));
    for (const Element& e : sets.back()) ++df[e];
  }
  const auto n = static_cast<double>(records.size());
  auto weight = [&](const Element& e) {
    auto it = df.find(e);
    return text::QuantizeWeight(it == df.end()
                                    ? std::log(std::max(2.0, n))
                                    : text::IdfWeightFromFrequency(n, it->second));
  };
  const std::vector<Element> q = ElementsOf(tokenizer, query);
  double query_weight = 0.0;
  for (const Element& e : q) query_weight += weight(e);

  std::vector<LookupOracleMatch> out;
  for (size_t i = 0; i < sets.size(); ++i) {
    double overlap = 0.0;
    double set_weight = 0.0;
    bool shared = false;
    for (const Element& e : sets[i]) {
      double w = weight(e);
      set_weight += w;
      if (std::binary_search(q.begin(), q.end(), e)) {
        overlap += w;
        shared = true;
      }
    }
    if (!shared) continue;
    double uni = query_weight + set_weight - overlap;
    if (AtLeastExactly(overlap, uni, alpha)) out.push_back({i, overlap / uni});
  }
  std::sort(out.begin(), out.end(),
            [](const LookupOracleMatch& a, const LookupOracleMatch& b) {
              if (a.similarity != b.similarity) return a.similarity > b.similarity;
              return a.index < b.index;
            });
  if (out.size() > k) out.resize(k);
  return out;
}

long long QGramCountBound(size_t len_r, size_t len_s, size_t q, size_t budget) {
  long long max_len = static_cast<long long>(len_r > len_s ? len_r : len_s);
  return max_len - static_cast<long long>(q) + 1 -
         static_cast<long long>(q) * static_cast<long long>(budget);
}

}  // namespace ssjoin::fuzz
