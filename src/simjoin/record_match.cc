#include "simjoin/record_match.h"

#include <unordered_set>

#include "common/hash.h"
#include "kernels/kernels.h"
#include "sim/edit_distance.h"
#include "sim/jaro.h"
#include "sim/set_overlap.h"
#include "sim/soundex.h"
#include "simjoin/prep.h"
#include "simjoin/string_joins.h"
#include "text/tokenizer.h"

namespace ssjoin::simjoin {

namespace {

Result<std::vector<std::string>> ExtractColumn(
    const std::vector<std::vector<std::string>>& rows, size_t column) {
  std::vector<std::string> out;
  out.reserve(rows.size());
  for (const auto& row : rows) {
    if (column >= row.size()) {
      return Status::IndexError("rule references a column beyond the row width");
    }
    out.push_back(row[column]);
  }
  return out;
}

/// Exact verifier for one rule: prep data for Jaccard rules is built lazily
/// per (rule, column) by the caller and passed in.
class RuleVerifier {
 public:
  RuleVerifier(const ColumnRule& rule, const std::vector<std::string>& r_col,
               const std::vector<std::string>& s_col)
      : rule_(rule), r_col_(r_col), s_col_(s_col) {}

  Status Prepare() {
    if (rule_.sim == ColumnSim::kJaccard) {
      text::WordTokenizer tokenizer;
      SSJOIN_ASSIGN_OR_RETURN(
          prep_, PrepareStrings(r_col_, s_col_, tokenizer, WeightMode::kIdf));
    }
    return Status::OK();
  }

  bool Passes(uint32_t r, uint32_t s) const {
    switch (rule_.sim) {
      case ColumnSim::kEquality:
        return r_col_[r] == s_col_[s];
      case ColumnSim::kSoundex:
        return sim::SoundexEqual(r_col_[r], s_col_[s]);
      case ColumnSim::kEditSimilarity:
        return sim::EditSimilarityAtLeast(r_col_[r], s_col_[s], rule_.threshold);
      case ColumnSim::kJaroWinkler:
        return MeetsThreshold(sim::JaroWinklerSimilarity(r_col_[r], s_col_[s]),
                              rule_.threshold);
      case ColumnSim::kJaccard: {
        core::SetView rs = prep_.r.set(r);
        core::SetView ss = prep_.s().set(s);
        double overlap =
            kernels::IntersectWeighted(rs, ss, prep_.weights.data());
        double uni =
            prep_.r.set_weights[r] + prep_.s().set_weights[s] - overlap;
        double jr = uni > 0.0 ? overlap / uni : 1.0;
        return MeetsThreshold(jr, rule_.threshold);
      }
    }
    return false;
  }

 private:
  ColumnRule rule_;
  const std::vector<std::string>& r_col_;
  const std::vector<std::string>& s_col_;
  Prepared prep_;
};

/// Candidate generation via the blocking rule's SSJoin-based join.
Result<std::vector<MatchPair>> BlockingJoin(const ColumnRule& rule,
                                            const std::vector<std::string>& r_col,
                                            const std::vector<std::string>& s_col,
                                            const JoinExecution& exec,
                                            SimJoinStats* stats) {
  switch (rule.sim) {
    case ColumnSim::kEquality: {
      // Equality as an SSJoin with singleton whole-string sets.
      SetJoinOptions opts;
      opts.word_tokens = true;
      // Whole-string token: use containment 1.0 over a "no-split" tokenizer
      // is not expressible via SetJoinOptions; use Jaccard 1.0 over word
      // tokens as an equality-of-token-multisets block and verify exactly.
      return JaccardResemblanceJoin(r_col, s_col, 1.0, opts, exec, stats);
    }
    case ColumnSim::kSoundex:
      return SoundexJoin(r_col, s_col, exec, stats);
    case ColumnSim::kEditSimilarity:
      return EditSimilarityJoin(r_col, s_col, rule.threshold, 3, exec, stats);
    case ColumnSim::kJaccard:
      return JaccardResemblanceJoin(r_col, s_col, rule.threshold, {}, exec, stats);
    case ColumnSim::kJaroWinkler:
      return Status::Invalid(
          "Jaro-Winkler has no SSJoin reduction and cannot be the blocking "
          "(first) rule of a rule set");
  }
  return Status::Invalid("unknown column similarity");
}

}  // namespace

Result<std::vector<MatchPair>> RecordMatchJoin(
    const std::vector<std::vector<std::string>>& r,
    const std::vector<std::vector<std::string>>& s,
    const RecordMatchOptions& options, SimJoinStats* stats) {
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (options.rule_sets.empty()) {
    return Status::Invalid("at least one rule set is required");
  }
  for (const auto& rules : options.rule_sets) {
    if (rules.empty()) return Status::Invalid("rule sets must be non-empty");
  }

  std::vector<MatchPair> out;
  std::unordered_set<std::pair<uint32_t, uint32_t>, PairHash> seen;
  for (const auto& rules : options.rule_sets) {
    // Blocking join on the first rule's column.
    SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> block_r,
                            ExtractColumn(r, rules[0].column));
    SSJOIN_ASSIGN_OR_RETURN(std::vector<std::string> block_s,
                            ExtractColumn(s, rules[0].column));
    SSJOIN_ASSIGN_OR_RETURN(
        std::vector<MatchPair> candidates,
        BlockingJoin(rules[0], block_r, block_s, options.exec, stats));

    // Verifiers for the remaining rules.
    std::vector<std::vector<std::string>> r_cols;
    std::vector<std::vector<std::string>> s_cols;
    std::vector<RuleVerifier> verifiers;
    r_cols.reserve(rules.size());
    s_cols.reserve(rules.size());
    for (size_t i = 1; i < rules.size(); ++i) {
      SSJOIN_ASSIGN_OR_RETURN(auto rc, ExtractColumn(r, rules[i].column));
      SSJOIN_ASSIGN_OR_RETURN(auto sc, ExtractColumn(s, rules[i].column));
      r_cols.push_back(std::move(rc));
      s_cols.push_back(std::move(sc));
    }
    for (size_t i = 1; i < rules.size(); ++i) {
      verifiers.emplace_back(rules[i], r_cols[i - 1], s_cols[i - 1]);
      SSJOIN_RETURN_NOT_OK(verifiers.back().Prepare());
    }
    // The equality blocking join over-approximates (it matches equal token
    // *multisets*, e.g. "a b" ~ "b a"), so re-verify it exactly.
    if (rules[0].sim == ColumnSim::kEquality) {
      verifiers.emplace_back(rules[0], block_r, block_s);
      SSJOIN_RETURN_NOT_OK(verifiers.back().Prepare());
    }

    for (const MatchPair& candidate : candidates) {
      if (seen.count({candidate.r, candidate.s})) continue;
      bool all_pass = true;
      for (const RuleVerifier& verifier : verifiers) {
        ++stats->verifier_calls;
        if (!verifier.Passes(candidate.r, candidate.s)) {
          all_pass = false;
          break;
        }
      }
      if (all_pass) {
        seen.insert({candidate.r, candidate.s});
        out.push_back(candidate);
      }
    }
  }
  stats->result_pairs = out.size();
  return out;
}

}  // namespace ssjoin::simjoin
