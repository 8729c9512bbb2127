#include "simjoin/prep.h"

#include <algorithm>

#include "approx/approx_ssjoin.h"
#include "core/cost_model.h"
#include "text/weights.h"

namespace ssjoin::simjoin {

Result<Prepared> PrepareStrings(const std::vector<std::string>& r,
                                const std::vector<std::string>& s,
                                const text::Tokenizer& tokenizer, WeightMode mode) {
  Prepared prep;
  std::vector<std::vector<text::TokenId>> r_docs;
  r_docs.reserve(r.size());
  for (const std::string& str : r) {
    r_docs.push_back(prep.dict.EncodeDocument(tokenizer.Tokenize(str)));
  }
  std::vector<std::vector<text::TokenId>> s_docs;
  s_docs.reserve(s.size());
  for (const std::string& str : s) {
    s_docs.push_back(prep.dict.EncodeDocument(tokenizer.Tokenize(str)));
  }

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

  SSJOIN_ASSIGN_OR_RETURN(prep.r, core::BuildSetsRelation(std::move(r_docs),
                                                          prep.weights));
  SSJOIN_ASSIGN_OR_RETURN(prep.s, core::BuildSetsRelation(std::move(s_docs),
                                                          prep.weights));
  return prep;
}

Result<std::vector<core::SSJoinPair>> RunSSJoinStage(const Prepared& prep,
                                                     const core::OverlapPredicate& pred,
                                                     const JoinExecution& execution,
                                                     SimJoinStats* stats) {
  core::SSJoinContext ctx = prep.Context();
  ctx.exec = &execution.exec;
  core::SSJoinAlgorithm algorithm = execution.algorithm;
  if (execution.use_cost_model) {
    algorithm = core::ChooseAlgorithm(prep.r, prep.s, pred, ctx);
  }
  // The approx-layer dispatch is a superset of core::ExecuteSSJoin: it adds
  // kApprox/kHybrid handling and forwards the exact algorithms unchanged.
  SSJOIN_ASSIGN_OR_RETURN(
      std::vector<core::SSJoinPair> pairs,
      approx::ExecuteSSJoin(algorithm, prep.r, prep.s, pred, ctx,
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
