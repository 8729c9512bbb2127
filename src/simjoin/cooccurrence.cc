#include "simjoin/cooccurrence.h"

#include <unordered_map>

#include "common/string_util.h"
#include "common/timer.h"
#include "text/weights.h"

namespace ssjoin::simjoin {

namespace {

/// Groups (entity, item) rows into per-entity item multisets, preserving
/// first-appearance entity order.
void GroupByEntity(const std::vector<std::pair<std::string, std::string>>& rows,
                   std::vector<std::string>* entities,
                   std::vector<std::vector<std::string>>* item_lists) {
  std::unordered_map<std::string, size_t> index;
  for (const auto& [entity, item] : rows) {
    auto [it, inserted] = index.try_emplace(entity, entities->size());
    if (inserted) {
      entities->push_back(entity);
      item_lists->emplace_back();
    }
    (*item_lists)[it->second].push_back(item);
  }
}

}  // namespace

Result<EntityJoinResult> CooccurrenceJoin(
    const std::vector<std::pair<std::string, std::string>>& r_rows,
    const std::vector<std::pair<std::string, std::string>>& s_rows, double alpha,
    JaccardVariant variant, WeightMode weights, const JoinExecution& exec,
    SimJoinStats* stats) {
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  Timer prep_timer;
  EntityJoinResult result;
  std::vector<std::vector<std::string>> r_items;
  std::vector<std::vector<std::string>> s_items;
  GroupByEntity(r_rows, &result.r_entities, &r_items);
  GroupByEntity(s_rows, &result.s_entities, &s_items);

  // Encode item multisets against a shared dictionary. Items are opaque
  // values (paper titles, ...), so the "tokenizer" is the identity: the
  // item list is already the token multiset.
  auto source = [](const std::vector<std::vector<std::string>>& lists) -> TokenSource {
    return [&lists](size_t d, std::string*, std::vector<std::string_view>* tokens) {
      tokens->assign(lists[d].begin(), lists[d].end());
    };
  };
  const TokenSource s_source = source(s_items);
  SSJOIN_ASSIGN_OR_RETURN(
      Prepared prep, PrepareDocuments(r_items.size(), source(r_items), s_items.size(),
                                      &s_source, weights, exec.exec));
  stats->phases.Add("Prep", prep_timer.ElapsedMillis());

  core::OverlapPredicate pred =
      variant == JaccardVariant::kContainment
          ? core::OverlapPredicate::OneSidedNormalized(alpha)
          : core::OverlapPredicate::TwoSidedNormalized(alpha);
  SSJOIN_ASSIGN_OR_RETURN(std::vector<core::SSJoinPair> pairs,
                          RunSSJoinStage(prep, pred, exec, stats));

  Timer filter_timer;
  for (const core::SSJoinPair& p : pairs) {
    double wt_r = prep.r.set_weights[p.r];
    if (variant == JaccardVariant::kContainment) {
      double jc = wt_r > 0.0 ? p.overlap / wt_r : 1.0;
      result.matches.push_back({p.r, p.s, jc});
    } else {
      ++stats->verifier_calls;
      double wt_union = wt_r + prep.s().set_weights[p.s] - p.overlap;
      double jr = wt_union > 0.0 ? p.overlap / wt_union : 1.0;
      if (MeetsThreshold(jr, alpha)) result.matches.push_back({p.r, p.s, jr});
    }
  }
  stats->result_pairs = result.matches.size();
  stats->phases.Add("Filter", filter_timer.ElapsedMillis());
  return result;
}

Result<std::vector<MatchPair>> FDAgreementJoin(
    const std::vector<std::vector<std::string>>& r,
    const std::vector<std::vector<std::string>>& s, size_t k,
    const JoinExecution& exec, SimJoinStats* stats) {
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (k == 0) return Status::Invalid("k must be positive");

  size_t h = 0;
  if (!r.empty()) {
    h = r[0].size();
  } else if (!s.empty()) {
    h = s[0].size();
  }
  for (const auto* rows : {&r, &s}) {
    for (const auto& row : *rows) {
      if (row.size() != h) {
        return Status::Invalid(StringPrintf(
            "FD join rows must all have %zu columns, got %zu", h, row.size()));
      }
    }
  }
  if (k > h) {
    return Status::Invalid(StringPrintf("k=%zu exceeds the column count h=%zu", k, h));
  }
  Timer prep_timer;
  // Element = the ordered pair <Column, Value> (Example 6's AEP set), spelt
  // "c=value" in the buffer; the views are taken once it is complete.
  auto source = [h](const std::vector<std::vector<std::string>>& rows) -> TokenSource {
    return [&rows, h](size_t d, std::string* buffer,
                      std::vector<std::string_view>* tokens) {
      buffer->clear();
      for (size_t c = 0; c < h; ++c) {
        buffer->append(std::to_string(c)).push_back('=');
        buffer->append(rows[d][c]);
      }
      tokens->clear();
      size_t at = 0;
      for (size_t c = 0; c < h; ++c) {
        const size_t len = buffer->find('=', at) + 1 + rows[d][c].size() - at;
        tokens->push_back(std::string_view(*buffer).substr(at, len));
        at += len;
      }
    };
  };
  const TokenSource s_source = source(s);
  SSJOIN_ASSIGN_OR_RETURN(Prepared prep,
                          PrepareDocuments(r.size(), source(r), s.size(), &s_source,
                                           WeightMode::kUnit, exec.exec));
  stats->phases.Add("Prep", prep_timer.ElapsedMillis());

  core::OverlapPredicate pred =
      core::OverlapPredicate::Absolute(static_cast<double>(k));
  SSJOIN_ASSIGN_OR_RETURN(std::vector<core::SSJoinPair> pairs,
                          RunSSJoinStage(prep, pred, exec, stats));

  std::vector<MatchPair> out;
  out.reserve(pairs.size());
  for (const core::SSJoinPair& p : pairs) out.push_back({p.r, p.s, p.overlap});
  stats->result_pairs = out.size();
  return out;
}

}  // namespace ssjoin::simjoin
