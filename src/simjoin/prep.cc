#include "simjoin/prep.h"

#include <algorithm>

#include "approx/approx_ssjoin.h"
#include "core/cost_model.h"
#include "text/weights.h"

namespace ssjoin::simjoin {

TokenSource TokenizedStrings(const text::Tokenizer& tokenizer,
                             const std::vector<std::string>& strings) {
  return [&tokenizer, &strings](size_t d, std::string* buffer,
                                std::vector<std::string_view>* tokens) {
    tokenizer.TokenizeInto(strings[d], buffer, tokens);
  };
}

Result<core::EncodedDocs> EncodeDocuments(size_t num_docs, const TokenSource& source,
                                          text::TokenDictionary* dict) {
  core::EncodedDocs docs;
  docs.offsets.reserve(num_docs + 1);
  std::string buffer;
  std::vector<std::string_view> tokens;
  for (size_t d = 0; d < num_docs; ++d) {
    source(d, &buffer, &tokens);
    dict->EncodeInto(tokens, &docs.ids);
    SSJOIN_RETURN_NOT_OK(core::SetStore::CheckCapacity(d + 1, docs.ids.size()));
    docs.offsets.push_back(static_cast<uint32_t>(docs.ids.size()));
  }
  return docs;
}

Result<Prepared> PrepareDocuments(size_t num_r, const TokenSource& r_source, size_t num_s,
                                  const TokenSource* s_source, WeightMode mode,
                                  const exec::ExecContext& exec, PhaseTimer* phases) {
  Prepared prep;
  Timer encode_timer;
  SSJOIN_ASSIGN_OR_RETURN(core::EncodedDocs r_docs,
                          EncodeDocuments(num_r, r_source, &prep.dict));
  core::EncodedDocs s_docs;
  if (s_source != nullptr) {
    SSJOIN_ASSIGN_OR_RETURN(s_docs, EncodeDocuments(num_s, *s_source, &prep.dict));
  } else {
    for (size_t d = 0; d < r_docs.num_docs(); ++d) prep.dict.CountEncoded(r_docs.doc(d));
  }
  if (phases != nullptr) phases->Add("Prep.encode", encode_timer.ElapsedMillis());

  switch (mode) {
    case WeightMode::kUnit: {
      prep.weights.assign(prep.dict.num_elements(), 1.0);
      break;
    }
    case WeightMode::kIdf: {
      text::IdfWeights idf(prep.dict);
      prep.weights = core::MaterializeWeights(prep.dict, idf);
      break;
    }
    case WeightMode::kIdfSquared: {
      text::IdfWeights idf(prep.dict);
      prep.weights = core::MaterializeWeights(prep.dict, idf);
      for (double& w : prep.weights) w *= w;
      break;
    }
  }
  // The paper's prefix ordering: elements by decreasing IDF weight, so the
  // most frequent elements are filtered out of prefixes first (§4.3.2).
  // Under unit weights this degenerates to id order, so fall back to the
  // frequency formulation which keeps the rarest-first intent.
  if (mode == WeightMode::kUnit) {
    prep.order = core::ElementOrder::ByIncreasingFrequency(prep.dict);
  } else {
    prep.order = core::ElementOrder::ByDecreasingWeight(prep.weights);
  }

  Timer relation_timer;
  SSJOIN_ASSIGN_OR_RETURN(prep.r, core::BuildSetsRelation(std::move(r_docs), prep.weights,
                                                          std::nullopt, exec));
  if (s_source != nullptr) {
    SSJOIN_ASSIGN_OR_RETURN(prep.s_rel, core::BuildSetsRelation(std::move(s_docs),
                                                                prep.weights,
                                                                std::nullopt, exec));
  } else {
    prep.self_join = true;
  }
  if (phases != nullptr) phases->Add("Prep.relation", relation_timer.ElapsedMillis());
  return prep;
}

Result<Prepared> PrepareStrings(const std::vector<std::string>& r,
                                const std::vector<std::string>& s,
                                const text::Tokenizer& tokenizer, WeightMode mode,
                                const exec::ExecContext& exec, PhaseTimer* phases) {
  const TokenSource s_source = TokenizedStrings(tokenizer, s);
  return PrepareDocuments(r.size(), TokenizedStrings(tokenizer, r), s.size(),
                          &r == &s ? nullptr : &s_source, mode, exec, phases);
}

Result<std::vector<core::SSJoinPair>> RunSSJoinStage(const Prepared& prep,
                                                     const core::OverlapPredicate& pred,
                                                     const JoinExecution& execution,
                                                     SimJoinStats* stats) {
  core::SSJoinContext ctx = prep.Context();
  ctx.exec = &execution.exec;
  core::SSJoinAlgorithm algorithm = execution.algorithm;
  if (execution.use_cost_model) {
    algorithm = core::ChooseAlgorithm(prep.r, prep.s(), pred, ctx);
  }
  // The approx-layer dispatch is a superset of core::ExecuteSSJoin: it adds
  // kApprox/kHybrid handling and forwards the exact algorithms unchanged. A
  // self-join passes prep.r as both sides.
  SSJOIN_ASSIGN_OR_RETURN(
      std::vector<core::SSJoinPair> pairs,
      approx::ExecuteSSJoin(algorithm, prep.r, prep.s(), pred, ctx,
                            execution.approx, &stats->ssjoin));
  stats->phases.Merge(stats->ssjoin.phases);
  return pairs;
}

void SortMatches(std::vector<MatchPair>* matches) {
  std::sort(matches->begin(), matches->end(),
            [](const MatchPair& a, const MatchPair& b) {
              if (a.r != b.r) return a.r < b.r;
              return a.s < b.s;
            });
}

}  // namespace ssjoin::simjoin
