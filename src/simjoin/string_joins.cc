#include "simjoin/string_joins.h"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>
#include <memory>

#include "common/timer.h"
#include "exec/parallel_for.h"
#include "sim/edit_distance.h"
#include "sim/soundex.h"
#include "simjoin/prep.h"
#include "text/tokenizer.h"

namespace ssjoin::simjoin {

namespace {

/// Tokenizer producing (position, character) pair tokens "i:c" for Hamming
/// joins, written into the caller's buffer.
class PositionalTokenizer final : public text::Tokenizer {
 public:
  void TokenizeInto(std::string_view s, std::string* buffer,
                    std::vector<std::string_view>* tokens) const override {
    buffer->clear();
    for (size_t i = 0; i < s.size(); ++i) {
      buffer->append(std::to_string(i));
      buffer->push_back(':');
      buffer->push_back(s[i]);
    }
    // The views are taken once the buffer is complete, so none dangles.
    tokens->clear();
    size_t at = 0;
    for (size_t i = 0; i < s.size(); ++i) {
      size_t len = buffer->find(':', at) + 2 - at;
      tokens->push_back(std::string_view(*buffer).substr(at, len));
      at += len;
    }
  }
  std::string Describe() const override { return "positional"; }
};

/// Tokenizer producing the singleton {Soundex(s)}.
class SoundexTokenizer final : public text::Tokenizer {
 public:
  void TokenizeInto(std::string_view s, std::string* buffer,
                    std::vector<std::string_view>* tokens) const override {
    *buffer = sim::Soundex(s);
    tokens->assign(1, *buffer);
  }
  std::string Describe() const override { return "soundex"; }
};

std::unique_ptr<text::Tokenizer> MakeSetTokenizer(const SetJoinOptions& opts) {
  if (opts.word_tokens) return std::make_unique<text::WordTokenizer>();
  return std::make_unique<text::QGramTokenizer>(opts.q);
}

/// Runs the full Figure 2 pipeline. `verify` maps an SSJoin output pair to
/// the exact similarity, or NaN to reject; it also sees the prepared
/// relations, whose set weights the set-similarity joins normalize by.
using VerifyFn =
    std::function<double(const Prepared&, const core::SSJoinPair&)>;

Result<std::vector<MatchPair>> RunPipeline(const std::vector<std::string>& r,
                                           const std::vector<std::string>& s,
                                           const text::Tokenizer& tokenizer,
                                           WeightMode mode,
                                           const core::OverlapPredicate& pred,
                                           const VerifyFn& verify,
                                           const JoinExecution& execution,
                                           SimJoinStats* stats) {
  SimJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  Timer prep_timer;
  SSJOIN_ASSIGN_OR_RETURN(Prepared prep, PrepareStrings(r, s, tokenizer, mode,
                                                        execution.exec, &stats->phases));
  stats->phases.Add("Prep", prep_timer.ElapsedMillis());

  SSJOIN_ASSIGN_OR_RETURN(std::vector<core::SSJoinPair> pairs,
                          RunSSJoinStage(prep, pred, execution, stats));

  // Final UDF filter. The exact-similarity verifier is the hot loop of the
  // distance-based joins, so it runs in morsels over the candidate pairs;
  // per-morsel outputs concatenated in morsel order keep the result
  // identical at any thread count.
  Timer filter_timer;
  const exec::ExecContext& ec = execution.exec;
  std::vector<std::vector<MatchPair>> morsels(exec::NumMorsels(ec, pairs.size()));
  exec::ParallelFor(ec, pairs.size(),
                    [&](size_t /*worker*/, size_t m, size_t begin, size_t end) {
                      for (size_t i = begin; i < end; ++i) {
                        const core::SSJoinPair& p = pairs[i];
                        double similarity = verify(prep, p);
                        if (!std::isnan(similarity)) {
                          morsels[m].push_back({p.r, p.s, similarity});
                        }
                      }
                    });
  stats->verifier_calls += pairs.size();
  std::vector<MatchPair> out;
  size_t total = 0;
  for (const std::vector<MatchPair>& matches : morsels) total += matches.size();
  out.reserve(total);
  for (const std::vector<MatchPair>& matches : morsels) {
    out.insert(out.end(), matches.begin(), matches.end());
  }
  stats->result_pairs = out.size();
  stats->phases.Add("Filter", filter_timer.ElapsedMillis());
  return out;
}

constexpr double kReject = std::numeric_limits<double>::quiet_NaN();

}  // namespace

Result<std::vector<MatchPair>> EditDistanceJoin(const std::vector<std::string>& r,
                                                const std::vector<std::string>& s,
                                                size_t max_distance, size_t q,
                                                const JoinExecution& exec,
                                                SimJoinStats* stats) {
  if (q == 0) return Status::Invalid("q must be positive");
  text::QGramTokenizer tokenizer(q);
  // Property 4: Overlap >= max(norm_r, norm_s) - max_distance * q, expressed
  // as the conjunction of the two one-sided bounds.
  double c = -static_cast<double>(max_distance * q);
  core::OverlapPredicate pred;
  pred.And({c, 1.0, 0.0}).And({c, 0.0, 1.0});
  VerifyFn verify = [&r, &s, max_distance](const Prepared&,
                                           const core::SSJoinPair& p) {
    size_t ed = sim::EditDistanceBounded(r[p.r], s[p.s], max_distance);
    if (ed > max_distance) return kReject;
    return -static_cast<double>(ed);
  };
  return RunPipeline(r, s, tokenizer, WeightMode::kUnit, pred, verify, exec, stats);
}

Result<std::vector<MatchPair>> EditSimilarityJoin(const std::vector<std::string>& r,
                                                  const std::vector<std::string>& s,
                                                  double alpha, size_t q,
                                                  const JoinExecution& exec,
                                                  SimJoinStats* stats) {
  if (q == 0) return Status::Invalid("q must be positive");
  if (alpha < 0.0 || alpha > 1.0) {
    return Status::Invalid("alpha must be in [0, 1]");
  }
  text::QGramTokenizer tokenizer(q);
  // ES >= alpha allows ED <= (1-alpha)*max(len); substituting
  // len = norm + q - 1 into Property 4 gives, for each side,
  //   Overlap >= k*norm + c,  k = 1 - (1-alpha)*q,  c = k*(q-1) - q + 1.
  double k = 1.0 - (1.0 - alpha) * static_cast<double>(q);
  double c = k * static_cast<double>(q - 1) - static_cast<double>(q) + 1.0;
  core::OverlapPredicate pred;
  pred.And({c, k, 0.0}).And({c, 0.0, k});
  VerifyFn verify = [&r, &s, alpha](const Prepared&, const core::SSJoinPair& p) {
    const std::string& a = r[p.r];
    const std::string& b = s[p.s];
    size_t max_len = std::max(a.size(), b.size());
    if (max_len == 0) return 1.0;
    size_t budget = sim::EditBudget(alpha, max_len);
    size_t ed = sim::EditDistanceBounded(a, b, budget);
    if (ed > budget) return kReject;
    return 1.0 - static_cast<double>(ed) / static_cast<double>(max_len);
  };
  return RunPipeline(r, s, tokenizer, WeightMode::kUnit, pred, verify, exec, stats);
}

Result<std::vector<MatchPair>> JaccardContainmentJoin(
    const std::vector<std::string>& r, const std::vector<std::string>& s,
    double alpha, const SetJoinOptions& opts, const JoinExecution& exec,
    SimJoinStats* stats) {
  std::unique_ptr<text::Tokenizer> tokenizer = MakeSetTokenizer(opts);
  core::OverlapPredicate pred = core::OverlapPredicate::OneSidedNormalized(alpha);
  // The reduction is exact (Example 3): no UDF rejection, similarity is the
  // containment itself, the pair's overlap over the R set weight.
  VerifyFn verify = [](const Prepared& prep, const core::SSJoinPair& p) {
    double wt_r = prep.r.set_weights[p.r];
    return wt_r > 0.0 ? p.overlap / wt_r : 1.0;
  };
  return RunPipeline(r, s, *tokenizer, opts.weights, pred, verify, exec, stats);
}

Result<std::vector<MatchPair>> JaccardResemblanceJoin(
    const std::vector<std::string>& r, const std::vector<std::string>& s,
    double alpha, const SetJoinOptions& opts, const JoinExecution& exec,
    SimJoinStats* stats) {
  std::unique_ptr<text::Tokenizer> tokenizer = MakeSetTokenizer(opts);
  core::OverlapPredicate pred = core::OverlapPredicate::TwoSidedNormalized(alpha);
  VerifyFn verify = [alpha](const Prepared& prep, const core::SSJoinPair& p) {
    double wt_union =
        prep.r.set_weights[p.r] + prep.s().set_weights[p.s] - p.overlap;
    double jr = wt_union > 0.0 ? p.overlap / wt_union : 1.0;
    return MeetsThreshold(jr, alpha) ? jr : kReject;
  };
  return RunPipeline(r, s, *tokenizer, opts.weights, pred, verify, exec, stats);
}

Result<std::vector<MatchPair>> CosineJoin(const std::vector<std::string>& r,
                                          const std::vector<std::string>& s,
                                          double alpha, const SetJoinOptions& opts,
                                          const JoinExecution& exec,
                                          SimJoinStats* stats) {
  std::unique_ptr<text::Tokenizer> tokenizer = MakeSetTokenizer(opts);
  // cos(r, s) = Overlap / sqrt(norm_r * norm_s) with idf^2 element weights.
  // A matching pair satisfies norm_s >= alpha^2 * norm_r (and symmetrically),
  // giving the conjuncts Overlap >= alpha^2 * norm on both sides.
  core::OverlapPredicate pred =
      core::OverlapPredicate::TwoSidedNormalized(alpha * alpha);
  VerifyFn verify = [alpha](const Prepared& prep, const core::SSJoinPair& p) {
    double denom =
        std::sqrt(prep.r.set_weights[p.r] * prep.s().set_weights[p.s]);
    double cos = denom > 0.0 ? p.overlap / denom : 1.0;
    return MeetsThreshold(cos, alpha) ? cos : kReject;
  };
  return RunPipeline(r, s, *tokenizer, WeightMode::kIdfSquared, pred, verify,
                     exec, stats);
}

Result<std::vector<MatchPair>> HammingJoin(const std::vector<std::string>& r,
                                           const std::vector<std::string>& s,
                                           size_t max_distance,
                                           const JoinExecution& exec,
                                           SimJoinStats* stats) {
  PositionalTokenizer tokenizer;
  // HD(r, s) = max(|r|, |s|) - Overlap of (position, char) sets, so
  // HD <= d  <=>  Overlap >= max(norm_r, norm_s) - d. Exact reduction.
  double c = -static_cast<double>(max_distance);
  core::OverlapPredicate pred;
  pred.And({c, 1.0, 0.0}).And({c, 0.0, 1.0});
  VerifyFn verify = [&r, &s](const Prepared&, const core::SSJoinPair& p) {
    double hd = static_cast<double>(std::max(r[p.r].size(), s[p.s].size())) -
                p.overlap;
    return -hd;
  };
  return RunPipeline(r, s, tokenizer, WeightMode::kUnit, pred, verify, exec, stats);
}

Result<std::vector<MatchPair>> SoundexJoin(const std::vector<std::string>& r,
                                           const std::vector<std::string>& s,
                                           const JoinExecution& exec,
                                           SimJoinStats* stats) {
  SoundexTokenizer tokenizer;
  core::OverlapPredicate pred = core::OverlapPredicate::Absolute(1.0);
  VerifyFn verify = [](const Prepared&, const core::SSJoinPair&) {
    return 1.0;
  };
  return RunPipeline(r, s, tokenizer, WeightMode::kUnit, pred, verify, exec, stats);
}

}  // namespace ssjoin::simjoin
