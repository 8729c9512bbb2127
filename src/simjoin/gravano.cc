#include "simjoin/gravano.h"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <utility>

#include "common/timer.h"
#include "sim/edit_distance.h"
#include "simjoin/prep.h"
#include "text/tokenizer.h"

namespace ssjoin::simjoin {

namespace {

/// Positional q-gram index over the S side: gram -> (string index, position).
class PositionalQGramIndex {
 public:
  /// Indexes the S strings' grams, `docs` as the Prep encoder interned them
  /// into `dict`. A gram's postings hang off its first-occurrence element
  /// (gram, 0), whatever ordinal each occurrence got.
  PositionalQGramIndex(text::TokenDictionary dict, const core::EncodedDocs& docs)
      : dict_(std::move(dict)) {
    std::vector<text::TokenId> gram_of(dict_.num_elements());
    for (text::TokenId id = 0; id < gram_of.size(); ++id) {
      gram_of[id] = dict_.OrdinalOf(id) == 0 ? id : dict_.Find(dict_.TokenOf(id), 0);
    }
    offsets_.assign(dict_.num_elements() + 1, 0);
    for (text::TokenId id : docs.ids) ++offsets_[gram_of[id] + 1];
    for (size_t i = 1; i < offsets_.size(); ++i) offsets_[i] += offsets_[i - 1];
    postings_.resize(offsets_.back());
    std::vector<uint32_t> cursor(offsets_.begin(), offsets_.end() - 1);
    for (uint32_t i = 0; i < docs.num_docs(); ++i) {
      std::span<const text::TokenId> grams = docs.doc(i);
      for (uint32_t pos = 0; pos < grams.size(); ++pos) {
        postings_[cursor[gram_of[grams[pos]]]++] = {i, pos};
      }
    }
  }

  struct Posting {
    uint32_t string_index;
    uint32_t position;
  };

  /// Postings of a gram, or an empty range if the gram never occurs in S.
  std::pair<const Posting*, const Posting*> Lookup(std::string_view gram) const {
    text::TokenId id = dict_.Find(gram, 0);
    if (id == text::kInvalidToken) return {nullptr, nullptr};
    return {postings_.data() + offsets_[id], postings_.data() + offsets_[id + 1]};
  }

 private:
  text::TokenDictionary dict_;
  std::vector<uint32_t> offsets_;
  std::vector<Posting> postings_;
};

/// Shared candidate-enumeration + verification skeleton. `budget_fn`
/// computes the per-pair edit budget.
template <typename BudgetFn>
Result<std::vector<MatchPair>> GravanoJoin(const std::vector<std::string>& r,
                                           const std::vector<std::string>& s,
                                           size_t q, const BudgetFn& budget_fn,
                                           bool emit_similarity,
                                           SimJoinStats* stats) {
  if (q == 0) return Status::Invalid("q must be positive");
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  Timer prep_timer;
  text::QGramTokenizer tokenizer(q);
  text::TokenDictionary dict;
  SSJOIN_ASSIGN_OR_RETURN(core::EncodedDocs s_grams,
                          EncodeDocuments(s.size(), TokenizedStrings(tokenizer, s), &dict));
  PositionalQGramIndex index(std::move(dict), s_grams);
  // Short-string bucket: S grouped by length, ordered for deterministic
  // candidate enumeration. Property 4's count filter
  // (>= max(|s1|,|s2|) - q + 1 - q*budget shared grams) only prunes when
  // that bound is >= 1; when it is non-positive — short strings, including
  // the empty string, relative to q and the budget — two strings within the
  // budget may share no q-gram at all, so requiring a common gram drops true
  // matches. Pairs in that regime bypass gram enumeration and go straight to
  // the verifier.
  std::vector<std::pair<size_t, std::vector<uint32_t>>> s_by_length;
  {
    std::map<size_t, std::vector<uint32_t>> grouped;
    for (uint32_t si = 0; si < s.size(); ++si) grouped[s[si].size()].push_back(si);
    s_by_length.assign(grouped.begin(), grouped.end());
  }
  stats->phases.Add("Prep", prep_timer.ElapsedMillis());

  std::vector<uint32_t> seen_epoch(s.size(), 0);
  uint32_t epoch = 0;
  std::vector<uint32_t> candidates;
  std::string gram_buffer;
  std::vector<std::string_view> grams;
  std::vector<MatchPair> out;
  double enumerate_ms = 0.0;
  double verify_ms = 0.0;
  for (uint32_t ri = 0; ri < r.size(); ++ri) {
    Timer enum_timer;
    ++epoch;
    candidates.clear();
    for (const auto& [s_len, indices] : s_by_length) {
      size_t budget = budget_fn(r[ri].size(), s_len);
      size_t len_diff =
          r[ri].size() > s_len ? r[ri].size() - s_len : s_len - r[ri].size();
      if (len_diff > budget) continue;
      size_t max_len = std::max(r[ri].size(), s_len);
      // bound >= 1 <=> max_len - q + 1 - q*budget >= 1 <=> the gram filter is
      // sound for this length pair; written as an overflow-safe ceil test.
      if ((max_len + q) / q > budget + 1) continue;
      for (uint32_t si : indices) {
        if (seen_epoch[si] == epoch) continue;
        seen_epoch[si] = epoch;
        candidates.push_back(si);
      }
    }
    tokenizer.TokenizeInto(r[ri], &gram_buffer, &grams);
    for (uint32_t pos = 0; pos < grams.size(); ++pos) {
      auto [begin, end] = index.Lookup(grams[pos]);
      stats->ssjoin.equijoin_rows += static_cast<size_t>(end - begin);
      for (const auto* p = begin; p != end; ++p) {
        if (seen_epoch[p->string_index] == epoch) continue;
        size_t budget = budget_fn(r[ri].size(), s[p->string_index].size());
        // Length filter: strings differing by more than the budget in
        // length cannot match.
        size_t len_diff = r[ri].size() > s[p->string_index].size()
                              ? r[ri].size() - s[p->string_index].size()
                              : s[p->string_index].size() - r[ri].size();
        if (len_diff > budget) continue;
        // Position filter: this common q-gram's positions must be within
        // the budget of each other.
        size_t pos_diff = pos > p->position ? pos - p->position : p->position - pos;
        if (pos_diff > budget) continue;
        seen_epoch[p->string_index] = epoch;
        candidates.push_back(p->string_index);
      }
    }
    stats->ssjoin.candidate_pairs += candidates.size();
    enumerate_ms += enum_timer.ElapsedMillis();

    Timer verify_timer;
    for (uint32_t si : candidates) {
      ++stats->verifier_calls;
      size_t budget = budget_fn(r[ri].size(), s[si].size());
      size_t ed = sim::EditDistanceBounded(r[ri], s[si], budget);
      if (ed > budget) continue;
      double similarity;
      if (emit_similarity) {
        size_t max_len = std::max(r[ri].size(), s[si].size());
        similarity = max_len == 0
                         ? 1.0
                         : 1.0 - static_cast<double>(ed) / static_cast<double>(max_len);
      } else {
        similarity = -static_cast<double>(ed);
      }
      out.push_back({ri, si, similarity});
    }
    verify_ms += verify_timer.ElapsedMillis();
  }
  stats->phases.Add("Candidate-enumeration", enumerate_ms);
  stats->phases.Add("EditSim-Filter", verify_ms);
  stats->result_pairs = out.size();
  return out;
}

}  // namespace

Result<std::vector<MatchPair>> GravanoEditSimilarityJoin(
    const std::vector<std::string>& r, const std::vector<std::string>& s,
    double alpha, size_t q, SimJoinStats* stats) {
  if (alpha < 0.0 || alpha > 1.0) return Status::Invalid("alpha must be in [0, 1]");
  return GravanoJoin(
      r, s, q,
      [alpha](size_t lr, size_t ls) {
        return sim::EditBudget(alpha, std::max(lr, ls));
      },
      /*emit_similarity=*/true, stats);
}

Result<std::vector<MatchPair>> GravanoEditDistanceJoin(
    const std::vector<std::string>& r, const std::vector<std::string>& s,
    size_t max_distance, size_t q, SimJoinStats* stats) {
  return GravanoJoin(
      r, s, q, [max_distance](size_t, size_t) { return max_distance; },
      /*emit_similarity=*/false, stats);
}

Result<std::vector<MatchPair>> CrossProductEditSimilarityJoin(
    const std::vector<std::string>& r, const std::vector<std::string>& s,
    double alpha, SimJoinStats* stats) {
  if (alpha < 0.0 || alpha > 1.0) return Status::Invalid("alpha must be in [0, 1]");
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Timer timer;
  std::vector<MatchPair> out;
  for (uint32_t ri = 0; ri < r.size(); ++ri) {
    for (uint32_t si = 0; si < s.size(); ++si) {
      ++stats->verifier_calls;
      size_t max_len = std::max(r[ri].size(), s[si].size());
      size_t budget = sim::EditBudget(alpha, max_len);
      size_t ed = sim::EditDistanceBounded(r[ri], s[si], budget);
      if (ed > budget) continue;
      double similarity =
          max_len == 0 ? 1.0
                       : 1.0 - static_cast<double>(ed) / static_cast<double>(max_len);
      out.push_back({ri, si, similarity});
    }
  }
  stats->result_pairs = out.size();
  stats->phases.Add("EditSim-Filter", timer.ElapsedMillis());
  return out;
}

}  // namespace ssjoin::simjoin
