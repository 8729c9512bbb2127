#include "simjoin/ges_join.h"

#include <algorithm>
#include <cmath>

#include "common/timer.h"
#include "core/cost_model.h"
#include "sim/ges.h"
#include "simjoin/prep.h"
#include "simjoin/string_joins.h"
#include "text/tokenizer.h"
#include "text/weights.h"

namespace ssjoin::simjoin {

namespace {

/// Word-tokenizes both sides into one dictionary through the Prep encoder.
struct EncodedSides {
  text::TokenDictionary dict;
  core::EncodedDocs r;
  core::EncodedDocs s;
};

Result<EncodedSides> EncodeWords(const std::vector<std::string>& r,
                                 const std::vector<std::string>& s) {
  text::WordTokenizer tokenizer;
  EncodedSides out;
  SSJOIN_ASSIGN_OR_RETURN(
      out.r, EncodeDocuments(r.size(), TokenizedStrings(tokenizer, r), &out.dict));
  SSJOIN_ASSIGN_OR_RETURN(
      out.s, EncodeDocuments(s.size(), TokenizedStrings(tokenizer, s), &out.dict));
  return out;
}

/// Each document's token sequence, read back from its ids, for the exact
/// GES verifier.
std::vector<std::vector<std::string>> TokenSequences(const text::TokenDictionary& dict,
                                                     const core::EncodedDocs& docs) {
  std::vector<std::vector<std::string>> out(docs.num_docs());
  for (size_t d = 0; d < out.size(); ++d) {
    for (text::TokenId id : docs.doc(d)) out[d].emplace_back(dict.TokenOf(id));
  }
  return out;
}

/// Token weight function for the exact GES UDF: the weight of the token's
/// first-occurrence element; unseen tokens (impossible here) get weight 1.
sim::TokenWeightFn TokenWeights(const text::TokenDictionary& dict,
                                const core::WeightVector& weights) {
  return [&dict, &weights](std::string_view t) {
    text::TokenId id = dict.Find(t, 0);
    return id == text::kInvalidToken ? 1.0 : weights[id];
  };
}

}  // namespace

Result<std::vector<MatchPair>> GESJoin(const std::vector<std::string>& r,
                                       const std::vector<std::string>& s,
                                       double alpha, const GESJoinOptions& opts,
                                       SimJoinStats* stats) {
  if (alpha < 0.0 || alpha > 1.0) return Status::Invalid("alpha must be in [0, 1]");
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // ---- Prep: word-tokenize, intern, weigh, and expand the R sets. ----
  Timer prep_timer;
  SSJOIN_ASSIGN_OR_RETURN(EncodedSides sides, EncodeWords(r, s));
  const text::TokenDictionary& dict = sides.dict;
  text::IdfWeights idf(dict);
  core::WeightVector weights = core::MaterializeWeights(dict, idf);

  // Vocabulary of distinct token strings = elements with ordinal 0.
  std::vector<std::string> vocab;
  std::vector<text::TokenId> vocab_ids;
  std::vector<uint32_t> vocab_of(dict.num_elements(), UINT32_MAX);
  for (text::TokenId id = 0; id < dict.num_elements(); ++id) {
    if (dict.OrdinalOf(id) == 0) {
      vocab_of[id] = static_cast<uint32_t>(vocab.size());
      vocab.emplace_back(dict.TokenOf(id));
      vocab_ids.push_back(id);
    }
  }

  // Similar-token pairs via a recursive edit-similarity join on the
  // vocabulary (Example 4's dictionary expansion).
  SSJOIN_ASSIGN_OR_RETURN(
      std::vector<MatchPair> similar_tokens,
      EditSimilarityJoin(vocab, vocab, opts.token_sim_threshold, opts.token_q));
  std::vector<std::vector<text::TokenId>> expansions(vocab.size());
  for (const MatchPair& m : similar_tokens) {
    if (m.r == m.s) continue;
    expansions[m.r].push_back(vocab_ids[m.s]);
  }

  // Expanded R documents: original elements plus similar tokens (as their
  // ordinal-0 elements) of each first-occurrence element.
  core::EncodedDocs r_expanded;
  std::vector<double> r_norms(sides.r.num_docs());
  for (size_t i = 0; i < sides.r.num_docs(); ++i) {
    double norm = 0.0;
    for (text::TokenId e : sides.r.doc(i)) {
      r_expanded.ids.push_back(e);
      norm += weights[e];
      if (vocab_of[e] == UINT32_MAX) continue;
      const auto& exp = expansions[vocab_of[e]];
      r_expanded.ids.insert(r_expanded.ids.end(), exp.begin(), exp.end());
    }
    SSJOIN_RETURN_NOT_OK(core::SetStore::CheckCapacity(i + 1, r_expanded.ids.size()));
    r_expanded.offsets.push_back(static_cast<uint32_t>(r_expanded.ids.size()));
    r_norms[i] = norm;  // wt of the *unexpanded* set (Definition 6's scale)
  }
  std::vector<std::vector<std::string>> r_tokens = TokenSequences(dict, sides.r);
  std::vector<std::vector<std::string>> s_tokens = TokenSequences(dict, sides.s);

  core::ElementOrder order = core::ElementOrder::ByDecreasingWeight(weights);
  Prepared prep;
  prep.weights = std::move(weights);
  prep.order = std::move(order);
  // Captures prep.weights (stable), NOT the moved-from local.
  sim::TokenWeightFn token_weight = TokenWeights(dict, prep.weights);
  SSJOIN_ASSIGN_OR_RETURN(
      prep.r, core::BuildSetsRelation(std::move(r_expanded), prep.weights,
                                      std::move(r_norms), opts.exec.exec));
  SSJOIN_ASSIGN_OR_RETURN(
      prep.s_rel, core::BuildSetsRelation(std::move(sides.s), prep.weights,
                                          std::nullopt, opts.exec.exec));
  stats->phases.Add("Prep", prep_timer.ElapsedMillis());

  // ---- SSJoin stage: 1-sided normalized overlap on the unexpanded norm. ----
  // Threshold derivation (sharpening the paper's "alpha - beta" sketch):
  // GES >= alpha bounds the transformation cost by (1-alpha)*wt(Set(r)).
  // Every r-token that is deleted, or replaced by a token farther than the
  // expansion radius (edit similarity < beta), costs more than
  // (1-beta)*wt(token), so the weight of such tokens is at most
  // (1-alpha)/(1-beta) of the set. The remaining tokens' partners land in
  // ExpandedSet(r) ∩ Set(s), giving
  //   Overlap >= (1 - (1-alpha)/(1-beta)) * wt(Set(r))
  // up to the weight skew between near-duplicate tokens, absorbed by
  // `slack` (and ultimately by the exact GES filter).
  double beta = opts.token_sim_threshold;
  double threshold =
      beta < 1.0 ? 1.0 - (1.0 - alpha) / (1.0 - beta) - opts.slack : 0.0;
  if (threshold < 0.0) threshold = 0.0;
  core::OverlapPredicate pred = core::OverlapPredicate::OneSidedNormalized(threshold);
  SSJOIN_ASSIGN_OR_RETURN(std::vector<core::SSJoinPair> pairs,
                          RunSSJoinStage(prep, pred, opts.exec, stats));

  // ---- Filter: exact GES UDF. ----
  Timer filter_timer;
  std::vector<MatchPair> out;
  for (const core::SSJoinPair& p : pairs) {
    ++stats->verifier_calls;
    double ges = sim::GeneralizedEditSimilarity(r_tokens[p.r], s_tokens[p.s], token_weight);
    if (MeetsThreshold(ges, alpha)) out.push_back({p.r, p.s, ges});
  }
  stats->result_pairs = out.size();
  stats->phases.Add("Filter", filter_timer.ElapsedMillis());
  return out;
}

Result<std::vector<MatchPair>> GESJoinBruteForce(const std::vector<std::string>& r,
                                                 const std::vector<std::string>& s,
                                                 double alpha, SimJoinStats* stats) {
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer prep_timer;
  SSJOIN_ASSIGN_OR_RETURN(EncodedSides sides, EncodeWords(r, s));
  text::IdfWeights idf(sides.dict);
  core::WeightVector weights = core::MaterializeWeights(sides.dict, idf);
  sim::TokenWeightFn token_weight = TokenWeights(sides.dict, weights);
  std::vector<std::vector<std::string>> r_tokens = TokenSequences(sides.dict, sides.r);
  std::vector<std::vector<std::string>> s_tokens = TokenSequences(sides.dict, sides.s);
  stats->phases.Add("Prep", prep_timer.ElapsedMillis());

  Timer filter_timer;
  std::vector<MatchPair> out;
  for (uint32_t i = 0; i < r.size(); ++i) {
    for (uint32_t j = 0; j < s.size(); ++j) {
      ++stats->verifier_calls;
      double ges = sim::GeneralizedEditSimilarity(r_tokens[i], s_tokens[j], token_weight);
      if (MeetsThreshold(ges, alpha)) out.push_back({i, j, ges});
    }
  }
  stats->result_pairs = out.size();
  stats->phases.Add("Filter", filter_timer.ElapsedMillis());
  return out;
}

}  // namespace ssjoin::simjoin
