#include "fuzz/scenarios.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <thread>

#include "approx/approx_ssjoin.h"
#include "common/atomic_file.h"
#include "common/hash.h"
#include "common/rng.h"
#include "common/string_util.h"
#include "core/predicate.h"
#include "core/ssjoin.h"
#include "fuzz/oracles.h"
#include "fuzz/shrink.h"
#include "fuzz/workload.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "index/manifest.h"
#include "kernels/kernels.h"
#include "serve/handler.h"
#include "serve/lookup_service.h"
#include "serve/wire.h"
#include "shard/replication.h"
#include "shard/shard_client.h"
#include "shard/sharded_index.h"
#include "shard/wire_client.h"
#include "sim/edit_distance.h"
#include "simjoin/ges_join.h"
#include "simjoin/gravano.h"
#include "simjoin/prep.h"
#include "simjoin/string_joins.h"
#include "text/tokenizer.h"

namespace ssjoin::fuzz {

namespace {

using simjoin::MatchPair;
using simjoin::Prepared;
using simjoin::WeightMode;

constexpr double kOverlapTol = 1e-9;

constexpr core::SSJoinAlgorithm kAllAlgorithms[] = {
    core::SSJoinAlgorithm::kNaive,
    core::SSJoinAlgorithm::kBasic,
    core::SSJoinAlgorithm::kInvertedIndex,
    core::SSJoinAlgorithm::kPrefixFilter,
    core::SSJoinAlgorithm::kPrefixFilterInline,
};

/// Records a failed check in `out`; always false.
bool Fail(CheckResult* out, std::string detail) {
  *out = CheckResult{false, std::move(detail)};
  return false;
}

std::string PairStr(uint32_t r, uint32_t s, double sim) {
  return StringPrintf("(%u, %u, sim=%.17g)", r, s, sim);
}

/// Exact pair-set comparison of two sorted match lists; similarities must
/// agree within `tol` (0 = bitwise).
bool SameMatches(const std::string& name, std::vector<MatchPair> got,
                 std::vector<MatchPair> want, double tol, CheckResult* out) {
  simjoin::SortMatches(&got);
  simjoin::SortMatches(&want);
  size_t i = 0;
  size_t j = 0;
  while (i < got.size() || j < want.size()) {
    bool take_got = j == want.size() ||
                    (i < got.size() && (got[i].r < want[j].r ||
                                        (got[i].r == want[j].r &&
                                         got[i].s < want[j].s)));
    bool take_want = i == got.size() ||
                     (j < want.size() && (want[j].r < got[i].r ||
                                          (want[j].r == got[i].r &&
                                           want[j].s < got[i].s)));
    if (take_got) {
      return Fail(out, name + ": extra pair " +
                           PairStr(got[i].r, got[i].s, got[i].similarity));
    }
    if (take_want) {
      return Fail(out, name + ": missing pair " +
                           PairStr(want[j].r, want[j].s, want[j].similarity));
    }
    double diff = std::abs(got[i].similarity - want[j].similarity);
    if (diff > tol) {
      return Fail(out, name + ": similarity mismatch at " +
                           PairStr(got[i].r, got[i].s, got[i].similarity) +
                           " vs oracle " +
                           PairStr(want[j].r, want[j].s, want[j].similarity));
    }
    ++i;
    ++j;
  }
  return true;
}

/// Every pair of `sub` must appear in `super` with a similarity within `tol`.
bool SubsetOf(const std::string& name, std::vector<MatchPair> sub,
              std::vector<MatchPair> super, double tol, CheckResult* out) {
  simjoin::SortMatches(&sub);
  simjoin::SortMatches(&super);
  size_t j = 0;
  for (const MatchPair& m : sub) {
    while (j < super.size() &&
           (super[j].r < m.r || (super[j].r == m.r && super[j].s < m.s))) {
      ++j;
    }
    if (j == super.size() || !(super[j] == m)) {
      return Fail(out, name + ": pair " + PairStr(m.r, m.s, m.similarity) +
                           " not in oracle result");
    }
    if (std::abs(super[j].similarity - m.similarity) > tol) {
      return Fail(out, name + ": similarity mismatch at " +
                           PairStr(m.r, m.s, m.similarity) + " vs oracle " +
                           PairStr(super[j].r, super[j].s, super[j].similarity));
    }
  }
  return true;
}

std::vector<MatchPair> ToMatches(const std::vector<core::SSJoinPair>& pairs) {
  std::vector<MatchPair> out;
  out.reserve(pairs.size());
  for (const core::SSJoinPair& p : pairs) out.push_back({p.r, p.s, p.overlap});
  return out;
}

std::unique_ptr<text::Tokenizer> MakeTokenizer(bool word_tokens, size_t q) {
  if (word_tokens) return std::make_unique<text::WordTokenizer>();
  return std::make_unique<text::QGramTokenizer>(q);
}

/// S of a join case: `rp.r` itself when both sides hold the same strings,
/// so a self-join reaches Prep's self-join path and, through it, the inline
/// prefix filter's triangle path.
const std::vector<std::string>& SideS(const Reproducer& rp) {
  return rp.s == rp.r ? rp.r : rp.s;
}

Result<simjoin::JoinExecution> MakeExecution(const Reproducer& rp) {
  simjoin::JoinExecution exec;
  SSJOIN_ASSIGN_OR_RETURN(uint64_t algorithm, rp.GetUint("algorithm", 4));
  exec.algorithm = kAllAlgorithms[algorithm % std::size(kAllAlgorithms)];
  SSJOIN_ASSIGN_OR_RETURN(uint64_t threads, rp.GetUint("threads", 1));
  exec.exec.num_threads = threads;
  SSJOIN_ASSIGN_OR_RETURN(uint64_t morsel, rp.GetUint("morsel", 2048));
  exec.exec.morsel_size = std::max<uint64_t>(1, morsel);
  return exec;
}

/// Per-pair edit budget under edit-similarity threshold alpha (the same
/// floor the joins use).
size_t EditSimBudget(double alpha, size_t len_r, size_t len_s) {
  double allowed = (1.0 - alpha) * static_cast<double>(std::max(len_r, len_s));
  return static_cast<size_t>(std::floor(allowed + 1e-9));
}

/// Shared predicate construction for the SSJoin-shaped scenarios.
Result<core::OverlapPredicate> MakePredicate(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t pred_kind, rp.GetUint("pred_kind", 2));
  switch (pred_kind % 3) {
    case 0: {
      SSJOIN_ASSIGN_OR_RETURN(double threshold, rp.GetDouble("threshold", 1.0));
      return core::OverlapPredicate::Absolute(threshold);
    }
    case 1: {
      SSJOIN_ASSIGN_OR_RETURN(double alpha, rp.GetDouble("alpha", 0.5));
      return core::OverlapPredicate::OneSidedNormalized(alpha);
    }
    default: {
      SSJOIN_ASSIGN_OR_RETURN(double alpha, rp.GetDouble("alpha", 0.5));
      return core::OverlapPredicate::TwoSidedNormalized(alpha);
    }
  }
}

// ---------------------------------------------------------------------------
// Scenario checks
// ---------------------------------------------------------------------------

Result<CheckResult> CheckSSJoinExecutors(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t q_raw, rp.GetUint("q", 3));
  size_t q = std::max<uint64_t>(1, q_raw);
  SSJOIN_ASSIGN_OR_RETURN(uint64_t weight_mode, rp.GetUint("weight_mode", 1));
  auto mode = static_cast<WeightMode>(weight_mode % 3);
  SSJOIN_ASSIGN_OR_RETURN(bool word_tokens, rp.GetBool("word_tokens", true));
  std::unique_ptr<text::Tokenizer> tok = MakeTokenizer(word_tokens, q);
  SSJOIN_ASSIGN_OR_RETURN(Prepared prep,
                          PrepareStrings(rp.r, SideS(rp), *tok, mode));

  SSJOIN_ASSIGN_OR_RETURN(core::OverlapPredicate pred, MakePredicate(rp));

  // Every executor joins R with S, and R with itself as one object on both
  // sides (the inline prefix filter's triangle path under a symmetric
  // predicate). When S is R, the first join is already the self-join.
  struct Join {
    const char* label;
    const core::SetsRelation* s;
    std::vector<MatchPair> oracle;
  };
  std::vector<Join> joins = {{"", &prep.s(), {}}};
  if (!prep.self_join) joins.push_back({", R as S", &prep.r, {}});
  for (Join& join : joins) {
    std::vector<core::SSJoinPair> oracle =
        SSJoinOracle(prep.r, *join.s, prep.weights, pred);
    core::SortPairs(&oracle);
    join.oracle = ToMatches(oracle);
  }

  // Two legs per executor and join: one thread (every morsel inline on the
  // caller) and N >= 2 threads, both with the drawn morsel size.
  SSJOIN_ASSIGN_OR_RETURN(uint64_t threads, rp.GetUint("threads", 2));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t morsel, rp.GetUint("morsel", 2));
  exec::ExecContext one_thread;
  one_thread.morsel_size = std::max<uint64_t>(1, morsel);
  exec::ExecContext n_threads = one_thread;
  n_threads.num_threads = std::max<uint64_t>(2, threads);

  CheckResult result;
  for (core::SSJoinAlgorithm algorithm : kAllAlgorithms) {
    for (const Join& join : joins) {
      for (const exec::ExecContext* ec : {&one_thread, &n_threads}) {
        core::SSJoinContext ctx = prep.Context();
        ctx.exec = ec;
        Result<std::vector<core::SSJoinPair>> got =
            core::ExecuteSSJoin(algorithm, prep.r, *join.s, pred, ctx, nullptr);
        std::string name = std::string(core::SSJoinAlgorithmName(algorithm)) +
                           " (" + std::to_string(ec->num_threads) + " threads" +
                           join.label + ")";
        if (!got.ok()) {
          return CheckResult{false, name + " failed: " + got.status().ToString()};
        }
        core::SortPairs(&got.ValueOrDie());
        // Tolerance 0: every executor sums each pair's weights in ascending
        // element order, as the scalar-merge oracle does (DESIGN §14).
        if (!SameMatches(name, ToMatches(*got), join.oracle, 0.0, &result)) {
          return result;
        }
      }
    }
  }
  return result;
}

Result<CheckResult> CheckEditDistanceJoins(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t q_raw, rp.GetUint("q", 3));
  size_t q = std::max<uint64_t>(1, q_raw);
  SSJOIN_ASSIGN_OR_RETURN(uint64_t d_raw, rp.GetUint("max_distance", 1));
  size_t d = d_raw;

  std::vector<MatchPair> oracle;
  for (uint32_t i = 0; i < rp.r.size(); ++i) {
    for (uint32_t j = 0; j < rp.s.size(); ++j) {
      size_t ed = sim::EditDistanceBounded(rp.r[i], rp.s[j], d);
      if (ed <= d) oracle.push_back({i, j, -static_cast<double>(ed)});
    }
  }

  CheckResult result;
  Result<std::vector<MatchPair>> gravano =
      simjoin::GravanoEditDistanceJoin(rp.r, SideS(rp), d, q);
  if (!gravano.ok()) {
    return CheckResult{false, "GravanoEditDistanceJoin failed: " +
                                  gravano.status().ToString()};
  }
  if (!SameMatches("GravanoEditDistanceJoin", *gravano, oracle, 0.0,
                   &result)) {
    return result;
  }

  SSJOIN_ASSIGN_OR_RETURN(simjoin::JoinExecution exec, MakeExecution(rp));
  Result<std::vector<MatchPair>> ssjoin =
      simjoin::EditDistanceJoin(rp.r, SideS(rp), d, q, exec);
  if (!ssjoin.ok()) {
    return CheckResult{false,
                       "EditDistanceJoin failed: " + ssjoin.status().ToString()};
  }
  if (!SubsetOf("EditDistanceJoin (precision)", *ssjoin, oracle, 0.0,
                &result)) {
    return result;
  }
  std::vector<MatchPair> sound = FilterToSoundBound(
      oracle, rp.r, rp.s, q, [d](size_t, size_t) { return d; });
  if (!SubsetOf("EditDistanceJoin (recall, sound-bound regime)", sound, *ssjoin,
                0.0, &result)) {
    return result;
  }
  return result;
}

Result<CheckResult> CheckEditSimilarityJoins(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t q_raw, rp.GetUint("q", 3));
  size_t q = std::max<uint64_t>(1, q_raw);
  SSJOIN_ASSIGN_OR_RETURN(double alpha, rp.GetDouble("alpha", 0.8));

  Result<std::vector<MatchPair>> oracle =
      simjoin::CrossProductEditSimilarityJoin(rp.r, rp.s, alpha);
  if (!oracle.ok()) return oracle.status();

  CheckResult result;
  Result<std::vector<MatchPair>> gravano =
      simjoin::GravanoEditSimilarityJoin(rp.r, SideS(rp), alpha, q);
  if (!gravano.ok()) {
    return CheckResult{false, "GravanoEditSimilarityJoin failed: " +
                                  gravano.status().ToString()};
  }
  if (!SameMatches("GravanoEditSimilarityJoin", *gravano, *oracle, 0.0,
                   &result)) {
    return result;
  }

  SSJOIN_ASSIGN_OR_RETURN(simjoin::JoinExecution exec, MakeExecution(rp));
  Result<std::vector<MatchPair>> ssjoin =
      simjoin::EditSimilarityJoin(rp.r, SideS(rp), alpha, q, exec);
  if (!ssjoin.ok()) {
    return CheckResult{
        false, "EditSimilarityJoin failed: " + ssjoin.status().ToString()};
  }
  if (!SubsetOf("EditSimilarityJoin (precision)", *ssjoin, *oracle, 0.0,
                &result)) {
    return result;
  }
  std::vector<MatchPair> sound =
      FilterToSoundBound(*oracle, rp.r, rp.s, q, [alpha](size_t lr, size_t ls) {
        return EditSimBudget(alpha, lr, ls);
      });
  if (!SubsetOf("EditSimilarityJoin (recall, sound-bound regime)", sound,
                *ssjoin, 0.0, &result)) {
    return result;
  }
  return result;
}

Result<CheckResult> CheckJaccardJoins(const Reproducer& rp) {
  simjoin::SetJoinOptions opts;
  SSJOIN_ASSIGN_OR_RETURN(opts.word_tokens, rp.GetBool("word_tokens", true));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t q_raw, rp.GetUint("q", 3));
  opts.q = std::max<uint64_t>(1, q_raw);
  SSJOIN_ASSIGN_OR_RETURN(uint64_t weight_mode, rp.GetUint("weight_mode", 1));
  opts.weights = static_cast<WeightMode>(weight_mode % 3);
  SSJOIN_ASSIGN_OR_RETURN(double alpha, rp.GetDouble("alpha", 0.5));
  SSJOIN_ASSIGN_OR_RETURN(simjoin::JoinExecution exec, MakeExecution(rp));

  std::unique_ptr<text::Tokenizer> tok = MakeTokenizer(opts.word_tokens, opts.q);
  SSJOIN_ASSIGN_OR_RETURN(Prepared prep,
                          PrepareStrings(rp.r, SideS(rp), *tok, opts.weights));
  SSJOIN_ASSIGN_OR_RETURN(
      Prepared prep_sq,
      PrepareStrings(rp.r, SideS(rp), *tok, WeightMode::kIdfSquared));

  CheckResult result;
  struct Case {
    const char* name;
    Result<std::vector<MatchPair>> got;
    std::vector<MatchPair> oracle;
  };
  Case cases[] = {
      {"JaccardContainmentJoin",
       simjoin::JaccardContainmentJoin(rp.r, SideS(rp), alpha, opts, exec),
       CrossProductJaccardContainment(prep, alpha)},
      {"JaccardResemblanceJoin",
       simjoin::JaccardResemblanceJoin(rp.r, SideS(rp), alpha, opts, exec),
       CrossProductJaccardResemblance(prep, alpha)},
      {"CosineJoin", simjoin::CosineJoin(rp.r, SideS(rp), alpha, opts, exec),
       CrossProductCosine(prep_sq, alpha)},
  };
  for (Case& c : cases) {
    if (!c.got.ok()) {
      return CheckResult{false, std::string(c.name) +
                                    " failed: " + c.got.status().ToString()};
    }
    if (!SameMatches(c.name, *c.got, c.oracle, kOverlapTol, &result)) {
      return result;
    }
  }
  return result;
}

Result<CheckResult> CheckGESJoin(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(double alpha, rp.GetDouble("alpha", 0.7));
  Result<std::vector<MatchPair>> ges = simjoin::GESJoin(rp.r, SideS(rp), alpha);
  if (!ges.ok()) {
    return CheckResult{false, "GESJoin failed: " + ges.status().ToString()};
  }
  Result<std::vector<MatchPair>> brute =
      simjoin::GESJoinBruteForce(rp.r, SideS(rp), alpha);
  if (!brute.ok()) return brute.status();
  CheckResult result;
  // GESJoin is precision-exact (candidates pass the exact GES UDF) but its
  // candidate generation is high-recall by design, not guaranteed-complete —
  // so the differential invariant is subset-with-equal-similarity.
  SubsetOf("GESJoin (precision)", *ges, *brute, kOverlapTol, &result);
  return result;
}

Result<index::MatchOptions> IndexOptions(const Reproducer& rp) {
  index::MatchOptions options;
  SSJOIN_ASSIGN_OR_RETURN(options.word_tokens, rp.GetBool("word_tokens", true));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t q_raw, rp.GetUint("q", 3));
  options.q = std::max<uint64_t>(1, q_raw);
  SSJOIN_ASSIGN_OR_RETURN(options.alpha, rp.GetDouble("alpha", 0.5));
  return options;
}

/// A lookup answer as (doc id, similarity) pairs.
using IdSims = std::vector<std::pair<uint64_t, double>>;

template <typename Match>
IdSims ToIdSims(const std::vector<Match>& matches) {
  IdSims out;
  out.reserve(matches.size());
  for (const auto& m : matches) out.emplace_back(m.id, m.similarity);
  return out;
}

/// fuzz::BruteForceLookup over `refs`, whose i-th record is doc `ids[i]`
/// (ids ascending, so the oracle's index tie-break is the doc-id one).
IdSims OracleLookup(const std::vector<uint64_t>& ids,
                    const std::vector<std::string>& refs,
                    const index::MatchOptions& match, const std::string& query,
                    size_t k) {
  std::unique_ptr<text::Tokenizer> tokenizer =
      MakeTokenizer(match.word_tokens, match.q);
  IdSims out;
  for (const LookupOracleMatch& m :
       BruteForceLookup(refs, *tokenizer, match.alpha, query, k)) {
    out.emplace_back(ids[m.index], m.similarity);
  }
  return out;
}

/// True when `got` equals `want` bitwise — ids, similarity doubles and
/// order; otherwise records the first divergence in `out`.
bool SameMatches(const std::string& name, const IdSims& got,
                 const IdSims& want, const std::string& query,
                 CheckResult* out) {
  if (got.size() != want.size()) {
    return Fail(out, name + ": result count " + std::to_string(got.size()) +
                         " vs oracle " + std::to_string(want.size()) +
                         " for query \"" + query + "\"");
  }
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i] != want[i]) {
      return Fail(out, name + ": match " + std::to_string(i) +
                           " diverges (id=" + std::to_string(got[i].first) +
                           " sim=" + StringPrintf("%.17g", got[i].second) +
                           " vs oracle id=" + std::to_string(want[i].first) +
                           " sim=" + StringPrintf("%.17g", want[i].second) +
                           ") for query \"" + query + "\"");
    }
  }
  return true;
}

/// Each served match's value must be row `id` of `rows` (doc_id = row index).
bool SameValues(const std::string& name,
                const std::vector<serve::ValuedMatch>& matches,
                const std::vector<std::string>& rows, CheckResult* result) {
  for (const serve::ValuedMatch& m : matches) {
    if (m.id >= rows.size() || m.value != rows[m.id]) {
      return Fail(result, name + ": doc " + std::to_string(m.id) +
                              " returned value '" + m.value + "'");
    }
  }
  return true;
}

/// A LookupService over a mutable index of the `r` rows (doc_id = row
/// index) must answer every `s` query bit-identically to BruteForceLookup
/// over the same rows, with each match's row as its value, the first time
/// and on a repeat, while `threads` (1-4) callers look up concurrently.
Result<CheckResult> CheckLookupService(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t k_raw, rp.GetUint("k", 3));
  size_t k = std::max<uint64_t>(1, k_raw);
  index::MutableIndexOptions mopts;
  SSJOIN_ASSIGN_OR_RETURN(mopts.match, IndexOptions(rp));
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> service_index,
                          index::MutableFuzzyIndex::Create(mopts));
  std::vector<uint64_t> ids;
  std::vector<std::pair<uint64_t, std::string>> records;
  records.reserve(rp.r.size());
  for (size_t i = 0; i < rp.r.size(); ++i) {
    ids.push_back(i);
    records.emplace_back(i, rp.r[i]);
  }
  SSJOIN_RETURN_NOT_OK(service_index->BulkLoad(records));

  SSJOIN_ASSIGN_OR_RETURN(uint64_t threads, rp.GetUint("threads", 1));
  threads = std::clamp<uint64_t>(threads, 1, 4);
  SSJOIN_ASSIGN_OR_RETURN(
      std::unique_ptr<serve::LookupService> service,
      serve::LookupService::Create(std::move(service_index), {}));

  std::vector<IdSims> want;
  want.reserve(rp.s.size());
  for (const std::string& query : rp.s) {
    want.push_back(OracleLookup(ids, rp.r, mopts.match, query, k));
  }
  CheckResult result;
  std::mutex result_mu;
  const std::string name = "LookupService";
  // Every caller makes two passes over all queries from a staggered start,
  // so the callers race the same queries against one index.
  auto caller = [&](size_t first) {
    for (int pass = 0; pass < 2; ++pass) {
      for (size_t j = 0; j < rp.s.size(); ++j) {
        size_t i = (first + j) % rp.s.size();
        Result<serve::LookupResult> served = service->Lookup(rp.s[i], k);
        CheckResult failed;
        if (served.ok()) {
          if (SameMatches(name + (pass == 0 ? " pass1" : " pass2"),
                          ToIdSims(served->matches), want[i], rp.s[i],
                          &failed) &&
              SameValues(name, served->matches, rp.r, &failed)) {
            continue;
          }
        } else {
          Fail(&failed, name + " Lookup failed: " + served.status().ToString());
        }
        std::lock_guard<std::mutex> lock(result_mu);
        if (result.pass) result = failed;
        return;
      }
    }
  };
  std::vector<std::thread> callers;
  for (size_t t = 0; t < threads; ++t) callers.emplace_back(caller, t);
  for (std::thread& t : callers) t.join();
  return result;
}

/// Differential check of the approximate tier against the exact oracle:
///  - precision: approx output ⊆ oracle, with exact overlaps;
///  - determinism: the parallel run is bitwise identical to the serial run;
///  - recall: |approx| / |oracle| >= target_recall (counting suffices
///    because the subset property has already been established);
///  - hybrid: whatever tier kHybrid routes to obeys the same bounds.
/// With `exact_floor` on, small workloads take the exact path and recall is
/// 1.0 by construction; with it off, the LSH path is forced whenever the
/// band tuner finds an in-budget plan.
Result<CheckResult> CheckRecall(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t q_raw, rp.GetUint("q", 3));
  size_t q = std::max<uint64_t>(1, q_raw);
  SSJOIN_ASSIGN_OR_RETURN(uint64_t weight_mode, rp.GetUint("weight_mode", 1));
  auto mode = static_cast<WeightMode>(weight_mode % 3);
  SSJOIN_ASSIGN_OR_RETURN(bool word_tokens, rp.GetBool("word_tokens", true));
  std::unique_ptr<text::Tokenizer> tok = MakeTokenizer(word_tokens, q);
  SSJOIN_ASSIGN_OR_RETURN(Prepared prep,
                          PrepareStrings(rp.r, SideS(rp), *tok, mode));
  SSJOIN_ASSIGN_OR_RETURN(core::OverlapPredicate pred, MakePredicate(rp));

  approx::ApproxParams params;
  SSJOIN_ASSIGN_OR_RETURN(params.target_recall,
                          rp.GetDouble("target_recall", 0.9));
  SSJOIN_ASSIGN_OR_RETURN(params.seed, rp.GetUint("minhash_seed", 1));
  SSJOIN_ASSIGN_OR_RETURN(bool exact_floor, rp.GetBool("exact_floor", true));
  if (!exact_floor) params.exact_floor_pairs = 0;
  params.recall_sample = 16;

  std::vector<core::SSJoinPair> oracle =
      SSJoinOracle(prep.r, prep.s(), prep.weights, pred);
  std::vector<MatchPair> oracle_matches = ToMatches(oracle);

  exec::ExecContext parallel_ctx;
  SSJOIN_ASSIGN_OR_RETURN(uint64_t threads, rp.GetUint("threads", 2));
  parallel_ctx.num_threads = std::max<uint64_t>(2, threads);
  SSJOIN_ASSIGN_OR_RETURN(uint64_t morsel, rp.GetUint("morsel", 2));
  parallel_ctx.morsel_size = std::max<uint64_t>(1, morsel);

  CheckResult result;
  std::vector<MatchPair> serial_matches;
  for (core::SSJoinAlgorithm algorithm :
       {core::SSJoinAlgorithm::kApprox, core::SSJoinAlgorithm::kHybrid}) {
    for (bool parallel : {false, true}) {
      core::SSJoinContext ctx = prep.Context();
      if (parallel) ctx.exec = &parallel_ctx;
      Result<std::vector<core::SSJoinPair>> got = approx::ExecuteSSJoin(
          algorithm, prep.r, prep.s(), pred, ctx, params, nullptr);
      std::string name = std::string(core::SSJoinAlgorithmName(algorithm)) +
                         (parallel ? " (parallel)" : " (serial)");
      if (!got.ok()) {
        return CheckResult{false, name + " failed: " + got.status().ToString()};
      }
      std::vector<MatchPair> matches = ToMatches(*got);
      if (!SubsetOf(name + " (precision)", matches, oracle_matches,
                    kOverlapTol, &result)) {
        return result;
      }
      if (!oracle_matches.empty()) {
        double recall = static_cast<double>(matches.size()) /
                        static_cast<double>(oracle_matches.size());
        if (recall + 1e-12 < params.target_recall) {
          return CheckResult{
              false, name + ": recall " + StringPrintf("%.6f", recall) +
                         " below target " +
                         StringPrintf("%.6f", params.target_recall) + " (" +
                         std::to_string(matches.size()) + "/" +
                         std::to_string(oracle_matches.size()) + " pairs)"};
        }
      }
      if (algorithm == core::SSJoinAlgorithm::kApprox) {
        if (!parallel) {
          serial_matches = matches;
        } else if (!SameMatches("approx parallel-vs-serial", matches,
                                serial_matches, 0.0, &result)) return result;
      }
    }
  }
  return result;
}

/// A fresh scratch data directory for a durable fuzz case, removed on scope
/// exit; `dir` stays empty (in-memory) when not durable.
struct ScratchDirGuard {
  explicit ScratchDirGuard(bool durable) {
    if (!durable) return;
    static std::atomic<uint64_t> counter{0};
    dir = (std::filesystem::temp_directory_path() /
           StringPrintf("ssjoin_fuzz_dir_%d_%llu", static_cast<int>(::getpid()),
                        static_cast<unsigned long long>(
                            counter.fetch_add(1, std::memory_order_relaxed))))
              .string();
    std::filesystem::remove_all(dir);
  }
  ~ScratchDirGuard() {
    if (!dir.empty()) {
      std::error_code ec;
      std::filesystem::remove_all(dir, ec);
    }
  }
  std::string dir;
};

/// One op of the churn encoding shared by the mutable_index,
/// filtered_lookup and sharded_lookup scenarios (one op per `r` string):
///   "u<id>\x1f<value>"  upsert       "d<id>"  delete
///   "s"  seal           "c"  compact "x"  kill + reopen (durable only)
/// Malformed strings decode to kind 0, a no-op, so ddmin byte-shrinking
/// always yields a valid case.
struct ChurnOp {
  char kind = 0;
  uint64_t id = 0;
  std::string value;
};

ChurnOp ParseChurnOp(const std::string& op) {
  ChurnOp out;
  if (op == "s" || op == "c" || op == "x") {
    out.kind = op[0];
  } else if (!op.empty() && (op[0] == 'u' || op[0] == 'd')) {
    size_t sep = op[0] == 'u' ? op.find('\x1f') : op.size();
    if (sep == std::string::npos || sep <= 1) return out;
    char* end = nullptr;
    out.id = std::strtoull(op.c_str() + 1, &end, 10);
    if (end != op.c_str() + sep) return out;
    if (op[0] == 'u') out.value = op.substr(sep + 1);
    out.kind = op[0];
  }
  return out;
}

/// The parameters of a churn case: k (at least 1), whether it is durable,
/// and the index options (data_dir left to the caller's ScratchDirGuard).
struct ChurnSetup {
  size_t k = 3;
  bool durable = false;
  index::MutableIndexOptions mopts;
};

Result<ChurnSetup> ParseChurnSetup(const Reproducer& rp) {
  ChurnSetup setup;
  SSJOIN_ASSIGN_OR_RETURN(uint64_t k_raw, rp.GetUint("k", 3));
  setup.k = std::max<uint64_t>(1, k_raw);
  SSJOIN_ASSIGN_OR_RETURN(setup.durable, rp.GetBool("durable", false));
  SSJOIN_ASSIGN_OR_RETURN(setup.mopts.match, IndexOptions(rp));
  SSJOIN_ASSIGN_OR_RETURN(setup.mopts.seal_threshold,
                          rp.GetUint("seal_threshold", 0));
  SSJOIN_ASSIGN_OR_RETURN(setup.mopts.max_generations,
                          rp.GetUint("max_generations", 0));
  return setup;
}

/// Deterministic attributes for a churned (id, value) doc: drawn from the
/// content hash so a shrunk op string still reproduces the same attributes.
/// Roughly a fifth of docs carry no country and a third no tier, keeping the
/// absent-attribute edge of the filter semantics in every workload.
filter::AttrSet FuzzAttrsFor(uint64_t id, const std::string& value) {
  static const char* const kCountries[] = {"DE", "FR", "US", "JP"};
  filter::AttrSet attrs;
  uint64_t h = HashCombine(HashString(value), id);
  if (h % 5 != 4) {
    (void)attrs.Set("country", filter::AttrValue::String(kCountries[h % 4]));
  }
  if ((h >> 8) % 3 != 2) {
    (void)attrs.Set("tier", filter::AttrValue::Int64(
                                static_cast<int64_t>((h >> 16) % 4)));
  }
  return attrs;
}

/// Applies `op` to `*index` (upserts carry FuzzAttrsFor attributes when
/// `with_attrs`; 'x' reopens a durable index). False when the op is a no-op:
/// malformed, or a reopen of an in-memory index.
Result<bool> ApplyChurnOp(const ChurnOp& op, const ChurnSetup& setup,
                          bool with_attrs,
                          std::unique_ptr<index::MutableFuzzyIndex>* index) {
  switch (op.kind) {
    case 'u':
      SSJOIN_RETURN_NOT_OK((*index)->Upsert(
          op.id, op.value,
          with_attrs ? FuzzAttrsFor(op.id, op.value) : filter::AttrSet{}));
      return true;
    case 'd':
      SSJOIN_RETURN_NOT_OK((*index)->Delete(op.id));
      return true;
    case 's':
      SSJOIN_RETURN_NOT_OK((*index)->Seal());
      return true;
    case 'c':
      SSJOIN_RETURN_NOT_OK((*index)->Compact());
      return true;
    case 'x':
      if (!setup.durable) return false;
      index->reset();
      SSJOIN_ASSIGN_OR_RETURN(*index,
                              index::MutableFuzzyIndex::Open(setup.mopts));
      return true;
  }
  return false;
}

/// Differential churn fuzz for the mutable index (ChurnOp encoding). After
/// EVERY applied op, all `s` queries are checked bitwise
/// (ids, similarities and order) against BruteForceLookup over the live
/// records sorted by ascending doc_id — the equivalence contract under
/// arbitrary interleavings, epoch by epoch. The oracle shares neither the
/// index's candidate generation nor its exact test.
Result<CheckResult> CheckMutableIndex(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(ChurnSetup setup, ParseChurnSetup(rp));
  ScratchDirGuard guard(setup.durable);
  setup.mopts.data_dir = guard.dir;
  const size_t k = setup.k;
  const index::MutableIndexOptions& mopts = setup.mopts;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          index::MutableFuzzyIndex::Create(mopts));
  std::map<uint64_t, std::string> live;
  CheckResult result;

  auto check_epoch = [&](const std::string& ctx) {
    std::vector<uint64_t> ids;
    std::vector<std::string> refs;
    for (const auto& [id, value] : live) {
      ids.push_back(id);
      refs.push_back(value);
    }
    for (const std::string& query : rp.s) {
      if (!SameMatches("mutable_index after '" + ctx + "'",
                       ToIdSims(index->Lookup(query, k)),
                       OracleLookup(ids, refs, mopts.match, query, k), query,
                       &result)) {
        return false;
      }
    }
    // A stale weight or set-weight column fails here even when no answer
    // flips.
    Status state = index->CheckEpochState(*index->Snapshot());
    if (!state.ok()) {
      return Fail(&result, "mutable_index after '" + ctx +
                               "': epoch state: " + state.ToString());
    }
    return true;
  };

  for (const std::string& text : rp.r) {
    ChurnOp op = ParseChurnOp(text);
    SSJOIN_ASSIGN_OR_RETURN(bool applied, ApplyChurnOp(op, setup, false, &index));
    if (!applied) continue;
    if (op.kind == 'u') live[op.id] = op.value;
    if (op.kind == 'd') live.erase(op.id);
    if (!check_epoch(text)) return result;
  }
  check_epoch("<end>");
  return result;
}

/// Builds the seed-drawn predicate of a `filtered_lookup` case from its
/// `f_*` params. Selector values one past the drawn range intentionally
/// produce zero-match conjuncts ("ZZ", tier 4); `f_ghost` adds a conjunct on
/// an attribute no doc ever carries.
Result<filter::FilterPredicate> FuzzPredicate(const Reproducer& rp) {
  static const char* const kCountries[] = {"DE", "FR", "US", "JP", "ZZ"};
  filter::FilterPredicate pred;
  SSJOIN_ASSIGN_OR_RETURN(uint64_t country_sel, rp.GetUint("f_country", 5));
  if (country_sel < 5) {
    filter::FilterConjunct c;
    c.name = "country";
    SSJOIN_ASSIGN_OR_RETURN(c.negated, rp.GetBool("f_country_neg", false));
    c.values.push_back(filter::AttrValue::String(kCountries[country_sel]));
    SSJOIN_ASSIGN_OR_RETURN(bool wide, rp.GetBool("f_country_wide", false));
    if (wide) {
      c.values.push_back(
          filter::AttrValue::String(kCountries[(country_sel + 1) % 5]));
    }
    SSJOIN_RETURN_NOT_OK(pred.AddConjunct(std::move(c)));
  }
  SSJOIN_ASSIGN_OR_RETURN(uint64_t tier_sel, rp.GetUint("f_tier", 5));
  if (tier_sel < 5) {
    filter::FilterConjunct c;
    c.name = "tier";
    SSJOIN_ASSIGN_OR_RETURN(c.negated, rp.GetBool("f_tier_neg", false));
    c.values.push_back(
        filter::AttrValue::Int64(static_cast<int64_t>(tier_sel)));
    SSJOIN_RETURN_NOT_OK(pred.AddConjunct(std::move(c)));
  }
  SSJOIN_ASSIGN_OR_RETURN(bool ghost, rp.GetBool("f_ghost", false));
  if (ghost) {
    filter::FilterConjunct c;
    c.name = "ghost";
    SSJOIN_ASSIGN_OR_RETURN(c.negated, rp.GetBool("f_ghost_neg", false));
    c.values.push_back(filter::AttrValue::Int64(1));
    SSJOIN_RETURN_NOT_OK(pred.AddConjunct(std::move(c)));
  }
  return pred;
}

/// Differential fuzz for the filtered-lookup contract: ChurnOp churn, with
/// every upsert carrying content-derived attributes. After EVERY op,
/// for every query, the filtered lookup (the predicate tested per
/// similarity candidate) must be bitwise identical to the exact post-filter
/// oracle — the unfiltered lookup with unbounded k, records failing
/// FilterPredicate::Matches dropped, truncated to k — and the empty filter
/// must be byte-identical to the unfiltered overload.
Result<CheckResult> CheckFilteredLookup(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(ChurnSetup setup, ParseChurnSetup(rp));
  SSJOIN_ASSIGN_OR_RETURN(filter::FilterPredicate pred, FuzzPredicate(rp));
  ScratchDirGuard guard(setup.durable);
  setup.mopts.data_dir = guard.dir;
  const size_t k = setup.k;
  const index::MutableIndexOptions& mopts = setup.mopts;

  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          index::MutableFuzzyIndex::Create(mopts));
  CheckResult result;

  auto check_epoch = [&](const std::string& ctx) -> bool {
    std::shared_ptr<const index::EpochState> state = index->Snapshot();
    const filter::FilterPredicate empty_pred;
    for (const std::string& query : rp.s) {
      std::vector<index::MutableFuzzyIndex::Match> got =
          index->LookupAt(*state, query, k, pred);
      // Oracle: unbounded-k unfiltered lookup, post-filtered, truncated.
      std::vector<index::MutableFuzzyIndex::Match> all = index->LookupAt(
          *state, query, static_cast<size_t>(state->live_docs) + 1);
      IdSims want;
      for (const auto& m : all) {
        std::optional<filter::AttrSet> attrs = index->AttrsAt(*state, m.id);
        if (!attrs) {
          return Fail(&result, "filtered_lookup after '" + ctx +
                               "': live match id " + std::to_string(m.id) +
                               " has no attribute set");
        }
        if (pred.Matches(*attrs)) want.emplace_back(m.id, m.similarity);
        if (want.size() == k) break;
      }
      if (!SameMatches("filtered_lookup after '" + ctx + "' pred " +
                           pred.CanonicalJson(),
                       ToIdSims(got), want, query, &result)) {
        return false;
      }
      // The empty filter must give the unfiltered result.
      if (!SameMatches("filtered_lookup after '" + ctx + "' (empty filter)",
                       ToIdSims(index->LookupAt(*state, query, k, empty_pred)),
                       ToIdSims(index->LookupAt(*state, query, k)), query,
                       &result)) {
        return false;
      }
    }
    return true;
  };

  for (const std::string& text : rp.r) {
    SSJOIN_ASSIGN_OR_RETURN(
        bool applied, ApplyChurnOp(ParseChurnOp(text), setup, true, &index));
    if (applied && !check_epoch(text)) return result;
  }
  check_epoch("<end>");
  return result;
}

/// Differential churn fuzz for the sharded index: ChurnOp churn applied to
/// a ShardedLookupIndex with a seed-drawn shard count, checked bitwise after
/// EVERY op against BruteForceLookup over the live records — the
/// shard-count invariance contract under arbitrary
/// upsert/delete/seal/compact/reopen interleavings. Every returned value
/// must be its document's live record, and every mutation's returned epoch
/// must equal Epoch() afterwards and never decrease while the index stays
/// open.
Result<CheckResult> CheckShardedLookup(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(ChurnSetup setup, ParseChurnSetup(rp));
  const size_t k = setup.k;
  const bool durable = setup.durable;
  shard::ShardedIndexOptions sopts;
  SSJOIN_ASSIGN_OR_RETURN(uint64_t shards, rp.GetUint("shards", 2));
  sopts.num_shards = static_cast<uint32_t>(std::max<uint64_t>(1, shards));
  sopts.match = setup.mopts.match;
  sopts.seal_threshold = setup.mopts.seal_threshold;
  sopts.max_generations = setup.mopts.max_generations;

  ScratchDirGuard guard(durable);
  sopts.data_dir = guard.dir;

  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<shard::ShardedLookupIndex> index,
                          shard::ShardedLookupIndex::Create(sopts));
  std::map<uint64_t, std::string> live;
  CheckResult result;

  auto check_epoch = [&](const std::string& ctx) -> Result<bool> {
    std::vector<uint64_t> ids;
    std::vector<std::string> refs;
    ids.reserve(live.size());
    refs.reserve(live.size());
    for (const auto& [id, value] : live) {
      ids.push_back(id);
      refs.push_back(value);
    }
    std::string name =
        "sharded_lookup N=" + std::to_string(sopts.num_shards) + " after '" +
        ctx + "'";
    for (const std::string& query : rp.s) {
      SSJOIN_ASSIGN_OR_RETURN(serve::LookupResult got, index->Lookup(query, k));
      if (!SameMatches(name, ToIdSims(got.matches),
                       OracleLookup(ids, refs, sopts.match, query, k), query,
                       &result)) {
        return false;
      }
      for (const serve::ValuedMatch& m : got.matches) {
        auto it = live.find(m.id);
        if (it == live.end() || it->second != m.value) {
          return Fail(&result, name + ": doc " + std::to_string(m.id) +
                               " returned value '" + m.value +
                               "', not its live record");
        }
      }
    }
    // Every shard's epoch against a recompute: over the cluster's live
    // values once the shard draws its weights from global statistics.
    for (uint32_t i = 0; i < index->num_shards(); ++i) {
      auto* local = dynamic_cast<serve::LookupService*>(&index->shard(i));
      if (local == nullptr) continue;
      std::shared_ptr<const index::MutableFuzzyIndex> idx = local->index();
      Status state = idx->CheckEpochState(
          *idx->Snapshot(), idx->global_stats_enabled() ? &refs : nullptr);
      if (!state.ok()) {
        return Fail(&result, name + ": shard " + std::to_string(i) +
                                 " epoch state: " + state.ToString());
      }
    }
    return true;
  };

  // A mutation's (or seal's, compact's) returned epoch is the cluster epoch
  // right after it.
  uint64_t last_epoch = 0;
  auto check_mutation_epoch = [&](uint64_t returned,
                                  const std::string& ctx) -> Result<bool> {
    SSJOIN_ASSIGN_OR_RETURN(uint64_t now, index->Epoch());
    if (returned != now || returned < last_epoch) {
      return Fail(&result, "sharded_lookup after '" + ctx +
                               "': returned epoch " + std::to_string(returned) +
                               ", Epoch() " + std::to_string(now) +
                               ", previous " + std::to_string(last_epoch));
    }
    last_epoch = returned;
    return true;
  };

  for (const std::string& text : rp.r) {
    ChurnOp op = ParseChurnOp(text);
    if (op.kind == 'u' || op.kind == 'd' || op.kind == 's' ||
        op.kind == 'c') {
      Result<uint64_t> epoch = op.kind == 'u'   ? index->Upsert(op.id, op.value)
                               : op.kind == 'd' ? index->Delete(op.id)
                               : op.kind == 's' ? index->Seal()
                                                : index->Compact();
      SSJOIN_RETURN_NOT_OK(epoch.status());
      if (op.kind == 'u') live[op.id] = op.value;
      if (op.kind == 'd') live.erase(op.id);
      SSJOIN_ASSIGN_OR_RETURN(bool ok, check_mutation_epoch(*epoch, text));
      if (!ok) return result;
    } else if (op.kind == 'x' && durable) {
      index.reset();
      shard::ShardedIndexOptions reopen = sopts;
      reopen.num_shards = 0;  // take the persisted shard count
      SSJOIN_ASSIGN_OR_RETURN(index, shard::ShardedLookupIndex::Open(reopen));
      // Epochs are per open index: a reopen restarts from the durable ones.
      SSJOIN_ASSIGN_OR_RETURN(last_epoch, index->Epoch());
    } else {
      continue;  // malformed op, or a reopen of an in-memory index: no-op
    }
    SSJOIN_ASSIGN_OR_RETURN(bool ok, check_epoch(text));
    if (!ok) return result;
  }
  SSJOIN_RETURN_NOT_OK(check_epoch("<end>").status());
  return result;
}

// ---------------------------------------------------------------------------
// request_dispatch: request lines from bytes to replies

/// One request line for request_dispatch: a random op (every op some mode
/// serves, plus an unknown one) with its own fields mostly present and
/// foreign ones rarely; string values come from `pool`.
std::string GenerateRequestLine(Rng* rng, const std::vector<std::string>& pool) {
  // Each op with the fields it reads.
  static const std::pair<const char*, const char*> kOps[] = {
      {"ping", ""}, {"metrics", ""}, {"shutdown", ""}, {"seal", ""},
      {"compact", ""}, {"epoch", ""}, {"resync", ""}, {"sync", ""},
      {"dump", ""}, {"no_such_op", ""}, {"stats", " format "},
      {"lookup", " query k deadline_ms filter "},
      {"slookup", " query k deadline_ms filter "},
      {"upsert", " id value attrs global "}, {"delete", " id global "},
      {"gstats", " has_added added has_removed removed "},
      {"gstats_reset", " values "}, {"getvalue", " id "},
      {"repl_fetch", " name "}};
  auto str = [&] {
    return "\"" + serve::JsonEscape(pool[rng->Uniform(pool.size())]) + "\"";
  };
  const auto& [op, own] = kOps[rng->Uniform(std::size(kOps))];
  std::string line = std::string("{\"op\": \"") + op + "\"";
  for (std::string field :
       {"query", "k", "deadline_ms", "filter", "id", "value", "attrs",
        "global", "format", "has_added", "added", "has_removed", "removed",
        "values", "name"}) {
    bool mine = std::string(own).find(" " + field + " ") != std::string::npos;
    if (!rng->Bernoulli(mine ? 0.85 : 0.05)) continue;
    std::string v;
    if (field == "k" || field == "id") {
      v = std::to_string(rng->Uniform(8));
    } else if (field == "deadline_ms") {
      v = std::to_string(rng->Uniform(2) * 1000);
    } else if (field == "filter") {
      v = R"({"country": ["DE", "FR"], "!tier": 1})";
    } else if (field == "attrs") {
      v = R"({"country": "DE", "tier": 1})";
    } else if (field == "global" || field.rfind("has_", 0) == 0) {
      v = rng->Bernoulli(0.8) ? "true" : "false";
    } else if (field == "format") {
      v = rng->Bernoulli(0.5) ? "\"ndjson\"" : str();
    } else if (field == "values") {
      v = "\"" + serve::JsonEscape(shard::PackNetstrings(pool)) + "\"";
    } else if (field == "name") {
      const char* names[] = {"\"MANIFEST\"", "\"../MANIFEST\"", "\"missing\""};
      v = names[rng->Uniform(3)];
    } else {
      v = str();
    }
    line += ", \"" + field + "\": " + v;
  }
  return line + "}";
}

/// Empty when `reply` is one well-formed answer: a JSON object with a
/// boolean "ok", followed only by what it announces (the `metrics` lines or
/// the `repl_fetch` body); otherwise what is wrong with it.
std::string ReplyDefect(const std::string& reply) {
  size_t nl = reply.find('\n');
  Result<std::map<std::string, std::string>> header =
      serve::ParseJsonObjectRaw(std::string_view(reply).substr(0, nl));
  if (!header.ok()) return "reply is not one JSON object";
  std::map<std::string, std::string>& m = *header;
  if (m["ok"] != "true" && m["ok"] != "false") return "reply lacks boolean 'ok'";
  bool more = nl != std::string::npos;
  std::string_view rest = more ? std::string_view(reply).substr(nl + 1) : "";
  if (m["ok"] == "true" && m.count("len") > 0) {
    return more && rest.size() == std::strtoull(m["len"].c_str(), nullptr, 10)
               ? ""
               : "body length disagrees with 'len'";
  }
  if (m["format"] != "\"ndjson\"") {
    return more ? "reply spans lines its header does not announce" : "";
  }
  std::vector<std::string> lines;
  if (more) lines = SplitAndDropEmpty(rest, "\n");
  if (std::to_string(lines.size()) != m["metrics"] ||
      (more && std::count(rest.begin(), rest.end(), '\n') + 1 !=
                   static_cast<std::ptrdiff_t>(lines.size()))) {
    return "metric lines disagree with the header's count";
  }
  for (const std::string& line : lines) {
    if (!serve::ParseJsonObjectRaw(line).ok()) {
      return "metric line is not a JSON object";
    }
  }
  return "";
}

/// The request path from bytes to reply, over the `r` strings (the docs,
/// the queries and the string pool) and the raw `s` lines:
///  - parser: every lookup line built from an `r` string parses with its
///    query and k intact, no strict prefix of it parses (truncation is always
///    reported), its `mutations` byte-mutated copies parse deterministically,
///    and the raw `s` lines parse without a crash;
///  - dispatch: each lookup line, a request line for a random op
///    (GenerateRequestLine), one in eight of the mutated copies with a mutated
///    copy of the request line beside each, and the raw `s` lines, split into
///    lines as the server reads them, go through three dispatchers: a single
///    in-memory service with the shard-server ops and repl_fetch, the same
///    service read-only (the follower's shape), and a 2-shard in-process
///    fan-out with resync. Each line must get exactly one well-formed reply
///    from each (ReplyDefect), without a crash.
Result<CheckResult> CheckRequestDispatch(const Reproducer& rp) {
  SSJOIN_ASSIGN_OR_RETURN(uint64_t k_raw, rp.GetUint("k", 3));
  uint64_t k = std::max<uint64_t>(1, k_raw);
  SSJOIN_ASSIGN_OR_RETURN(uint64_t deadline_ms, rp.GetUint("deadline_ms", 0));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t mutations, rp.GetUint("mutations", 32));
  SSJOIN_ASSIGN_OR_RETURN(uint64_t mutate_seed, rp.GetUint("mutate_seed", 1));
  Rng rng(mutate_seed);

  std::vector<std::string> requests = rp.s;  // the lines to dispatch
  for (const std::string& query : rp.r) {
    std::string line = "{\"op\": \"lookup\", \"query\": \"" +
                       serve::JsonEscape(query) +
                       "\", \"k\": " + std::to_string(k);
    if (deadline_ms > 0) {
      line += ", \"deadline_ms\": " + std::to_string(deadline_ms);
    }
    line += "}";
    Result<std::map<std::string, serve::JsonScalar>> parsed =
        serve::ParseJsonObject(line);
    if (!parsed.ok()) {
      return CheckResult{false, "valid request rejected: " +
                                    parsed.status().ToString() + " for " + line};
    }
    auto q = parsed->find("query");
    auto kf = parsed->find("k");
    if (q == parsed->end() ||
        q->second.type != serve::JsonScalar::Type::kString ||
        q->second.str != query || kf == parsed->end() ||
        kf->second.num != static_cast<double>(k)) {
      return CheckResult{false, "query or k did not round-trip for " + line};
    }
    // The object's closing '}' is its last byte (any earlier '}' sits inside
    // a string literal), so no strict prefix may parse.
    for (size_t len = 0; len < line.size(); ++len) {
      if (serve::ParseJsonObject(std::string_view(line).substr(0, len)).ok()) {
        return CheckResult{false, "strict prefix of length " +
                                      std::to_string(len) +
                                      " parsed as valid: " + line};
      }
    }
    std::string request = GenerateRequestLine(&rng, rp.r);
    requests.push_back(line);
    requests.push_back(request);
    // Byte-level mutations: the parser must return (not crash) and be
    // deterministic, the same bytes always yielding the same accept/reject.
    for (uint64_t m = 0; m < mutations; ++m) {
      std::string mutated = MutateString(&rng, line);
      if (serve::ParseJsonObject(mutated).ok() !=
          serve::ParseJsonObject(mutated).ok()) {
        return CheckResult{false,
                           "non-deterministic parse of mutated line: " + mutated};
      }
      if (m % 8 == 0) {
        requests.push_back(std::move(mutated));
        requests.push_back(MutateString(&rng, request));
      }
    }
  }
  for (const std::string& raw : rp.s) (void)serve::ParseJsonObject(raw);

  ScratchDirGuard leader_dir(/*durable=*/true);
  std::filesystem::create_directories(leader_dir.dir);
  // A repl_fetch body with newlines, braces and a NUL in it.
  SSJOIN_RETURN_NOT_OK(common::WriteFileAtomic(
      leader_dir.dir + "/" + index::kManifestFileName,
      std::string("raw\n{\"ok\": true}\n\0body", 22)));
  std::vector<std::pair<uint64_t, std::string>> docs;
  for (size_t i = 0; i < rp.r.size(); ++i) docs.emplace_back(i, rp.r[i]);
  index::MutableIndexOptions mopts;
  mopts.match.alpha = 0.3;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<index::MutableFuzzyIndex> index,
                          index::MutableFuzzyIndex::Create(mopts));
  SSJOIN_RETURN_NOT_OK(index->BulkLoad(docs));
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<serve::LookupService> single,
                          serve::LookupService::Create(std::move(index), {}));
  shard::ShardedIndexOptions sopts;
  sopts.num_shards = 2;
  sopts.match = mopts.match;
  SSJOIN_ASSIGN_OR_RETURN(std::unique_ptr<shard::ShardedLookupIndex> sharded,
                          shard::ShardedLookupIndex::Create(sopts));
  SSJOIN_RETURN_NOT_OK(sharded->BulkLoad(docs));
  serve::Handler leader(single.get(), 3, /*read_only=*/false);
  serve::Handler follower(single.get(), 3, /*read_only=*/true);
  for (serve::Handler* h : {&leader, &follower}) {
    shard::InstallShardServerOps(h, single.get());
    shard::InstallReplFetch(h, leader_dir.dir);
  }
  serve::Handler fanout(sharded.get(), 3, /*read_only=*/false);
  shard::InstallResync(&fanout, sharded.get());

  for (const std::string& request : requests) {
    for (std::string line : SplitAndDropEmpty(request, "\n")) {
      if (line.back() == '\r') line.pop_back();
      if (line.empty()) continue;
      for (const serve::Handler* h : {&leader, &follower, &fanout}) {
        bool stop = false;
        std::string reply = h->Handle(line, &stop);
        if (std::string defect = ReplyDefect(reply); !defect.empty()) {
          return CheckResult{false, defect + ": " + line + " -> " + reply};
        }
      }
    }
  }
  return CheckResult{};
}

// ---------------------------------------------------------------------------
// kernel_diff: every kernel tier vs the scalar oracle over adversarial spans
// ---------------------------------------------------------------------------

/// Decodes one whitespace-delimited number string into a sorted uint32 span.
/// Lenient by design so the shrinker can hand us any substring: unparsable
/// pieces are dropped, values are clamped to the weight-table range, and the
/// result is re-sorted (kernels require ascending input). Duplicates are
/// kept — multiset min-multiplicity is part of the contract under test.
std::vector<uint32_t> DecodeSpan(const std::string& text, uint32_t max_value) {
  std::vector<uint32_t> out;
  for (const std::string& piece : SplitAndDropEmpty(text, " \t,")) {
    Result<uint64_t> v = ParseUint64(piece);
    if (!v.ok()) continue;
    out.push_back(static_cast<uint32_t>(*v % (uint64_t{max_value} + 1)));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Token values stay below this so a dense weight table is allocatable.
/// Chosen just past 2^16 so spans can straddle the 65535/65536 boundary
/// (16-bit truncation bugs in a compare kernel show up exactly there).
constexpr uint32_t kKernelDiffMaxToken = 70000;

Result<CheckResult> CheckKernelDiff(const Reproducer& rp) {
  CheckResult result;
  const size_t pairs = std::min(rp.r.size(), rp.s.size());

  // Deterministic, irregular weights: equal results across tiers must come
  // from equal match sequences, not from weights that forgive reordering.
  std::vector<double> weights(size_t{kKernelDiffMaxToken} + 1);
  for (size_t t = 0; t < weights.size(); ++t) {
    weights[t] = 0.125 + static_cast<double>(t % 97) * 0.0625;
  }

  const std::vector<kernels::Tier> tiers = kernels::AvailableTiers();
  kernels::MarkedSet marks;
  marks.Bind(weights);
  for (size_t p = 0; p < pairs; ++p) {
    std::vector<uint32_t> a = DecodeSpan(rp.r[p], kKernelDiffMaxToken);
    std::vector<uint32_t> b = DecodeSpan(rp.s[p], kKernelDiffMaxToken);

    // Scalar-tier oracle for every kernel entry point.
    const size_t want_count =
        kernels::IntersectCountTier(kernels::Tier::kScalar, a, b);
    size_t want_matches = 0;
    const double want_overlap = kernels::IntersectWeightedTier(
        kernels::Tier::kScalar, a, b, weights.data(), &want_matches);
    std::vector<uint32_t> want_tokens(std::min(a.size(), b.size()));
    want_tokens.resize(kernels::IntersectTokensTier(
        kernels::Tier::kScalar, a, b, want_tokens.data()));
    std::vector<double> a_weights(a.size());
    for (size_t i = 0; i < a.size(); ++i) a_weights[i] = weights[a[i]];
    const double want_cols = kernels::IntersectWeightedColsTier(
        kernels::Tier::kScalar, a, a_weights, b);
    std::vector<uint32_t> seen(size_t{kKernelDiffMaxToken} + 1, 0);
    std::vector<uint32_t> want_probe;
    // Probe the same postings twice in one epoch: the second pass must be
    // filtered entirely by the seen-epoch table.
    kernels::ProbePostingsTier(kernels::Tier::kScalar, a, 1, seen.data(),
                               &want_probe);
    kernels::ProbePostingsTier(kernels::Tier::kScalar, a, 1, seen.data(),
                               &want_probe);

    for (kernels::Tier tier : tiers) {
      if (tier == kernels::Tier::kScalar) continue;
      const char* tn = kernels::TierName(tier);
      const std::string where =
          StringPrintf("pair %zu (|a|=%zu, |b|=%zu) tier %s", p, a.size(),
                       b.size(), tn);
      size_t got_count = kernels::IntersectCountTier(tier, a, b);
      if (got_count != want_count) {
        return CheckResult{false, where + ": IntersectCount " +
                                      std::to_string(got_count) + " != " +
                                      std::to_string(want_count)};
      }
      size_t got_matches = 0;
      double got_overlap = kernels::IntersectWeightedTier(
          tier, a, b, weights.data(), &got_matches);
      if (got_matches != want_matches || got_overlap != want_overlap) {
        return CheckResult{
            false, where + StringPrintf(": IntersectWeighted %.17g/%zu != "
                                        "%.17g/%zu",
                                        got_overlap, got_matches, want_overlap,
                                        want_matches)};
      }
      std::vector<uint32_t> got_tokens(std::min(a.size(), b.size()));
      got_tokens.resize(
          kernels::IntersectTokensTier(tier, a, b, got_tokens.data()));
      if (got_tokens != want_tokens) {
        return CheckResult{false, where + ": IntersectTokens sequence differs"};
      }
      double got_cols = kernels::IntersectWeightedColsTier(tier, a, a_weights, b);
      if (got_cols != want_cols) {
        return CheckResult{
            false, where + StringPrintf(": IntersectWeightedCols %.17g != %.17g",
                                        got_cols, want_cols)};
      }
      std::fill(seen.begin(), seen.end(), 0);
      std::vector<uint32_t> got_probe;
      kernels::ProbePostingsTier(tier, a, 1, seen.data(), &got_probe);
      kernels::ProbePostingsTier(tier, a, 1, seen.data(), &got_probe);
      if (got_probe != want_probe) {
        return CheckResult{false, where + ": ProbePostings sequence differs"};
      }
    }

    // MarkedSet leg: on the canonical (duplicate-free) spans it requires, an
    // overlap it returns is bit-equal to the scalar merge, and it prunes
    // only below the floor. Floors sit at, just around and away from the
    // true overlap, plus one drawn from the pair's own hash.
    a.erase(std::unique(a.begin(), a.end()), a.end());
    b.erase(std::unique(b.begin(), b.end()), b.end());
    const double want = kernels::IntersectWeightedTier(
        kernels::Tier::kScalar, a, b, weights.data(), nullptr);
    double wt_b = 0.0;
    for (uint32_t t : b) wt_b += weights[t];
    Rng floor_rng(HashCombine(HashString(rp.r[p]), HashString(rp.s[p])));
    marks.Mark(a);
    for (double floor :
         {want, std::nextafter(want, -INFINITY), std::nextafter(want, INFINITY),
          0.0, -1.0, want / 2, (want + wt_b) / 2, wt_b, wt_b + 1.0,
          2.0 * (want + 1.0) * floor_rng.NextDouble()}) {
      double got = -1.0;
      const bool kept = marks.OverlapAtLeast(b, wt_b, floor, &got);
      if (kept ? got != want : !(want < floor)) {
        return CheckResult{
            false, StringPrintf("pair %zu (|a|=%zu, |b|=%zu): MarkedSet "
                                "floor %.17g %s, scalar overlap %.17g",
                                p, a.size(), b.size(), floor,
                                kept ? StringPrintf("returned %.17g", got).c_str()
                                     : "pruned",
                                want)};
      }
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// Generation
// ---------------------------------------------------------------------------

/// One adversarial span for kernel_diff, encoded as a space-delimited number
/// string. The classes target exactly the kernel edge paths: empty and
/// length-1 spans, all-equal runs (multiset multiplicity), disjoint ranges
/// (zero-match fast paths), values straddling 2^16, lengths at SIMD block
/// boundaries (multiples of 4/8/16 plus or minus one → every tail length),
/// and long spans for the gallop skew heuristic.
std::string GenerateKernelSpan(Rng* rng) {
  uint64_t cls = rng->Uniform(100);
  size_t len;
  if (cls < 8) {
    return "";  // empty span
  } else if (cls < 16) {
    len = 1;
  } else if (cls < 30) {
    // All-equal run: every element the same value.
    len = 1 + rng->Uniform(40);
    uint64_t v = rng->Uniform(70001);
    std::string out;
    for (size_t i = 0; i < len; ++i) {
      if (!out.empty()) out.push_back(' ');
      out += std::to_string(v);
    }
    return out;
  } else if (cls < 45) {
    // Block-boundary length: w*k ± 1 for SIMD widths.
    const uint64_t widths[] = {4, 8, 16, 32};
    uint64_t w = widths[rng->Uniform(4)];
    len = static_cast<size_t>(w * (1 + rng->Uniform(4)) + rng->Uniform(3)) - 1;
  } else if (cls < 55) {
    len = 64 + rng->Uniform(512);  // long span → skewed pairs hit gallop
  } else {
    len = rng->Uniform(34);  // short spans, every length 0..33
  }
  // Value population: dense low range (forces matches + duplicates), a
  // window straddling 65535/65536, or a disjoint high block.
  uint64_t pop = rng->Uniform(100);
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    uint64_t v;
    if (pop < 45) {
      v = rng->Uniform(48);
    } else if (pop < 70) {
      v = 65504 + rng->Uniform(64);
    } else if (pop < 85) {
      v = 50000 + rng->Uniform(200);
    } else {
      v = rng->Uniform(70001);
    }
    size_t reps = rng->Bernoulli(0.25) ? 1 + rng->Uniform(3) : 1;
    for (size_t k = 0; k < reps; ++k) {
      if (!out.empty()) out.push_back(' ');
      out += std::to_string(v);
    }
  }
  return out;
}

/// The churn workload of mutable_index, filtered_lookup and sharded_lookup
/// (ChurnOp encoding, one op per `r` string; `s` holds the queries checked
/// at every epoch). Ops reference a small id space so upserts, replacements
/// and deletes collide often; values come from a shared pool so
/// near-duplicates (the interesting similarity regime) are common. Returns
/// whether the case is durable.
bool GenerateChurn(Rng* rng, double p_durable, uint64_t max_ops,
                   Reproducer* rp) {
  WorkloadOptions wopts;
  wopts.max_records = 12;
  std::vector<std::string> pool = GenerateStrings(rng, wopts);
  if (pool.empty()) pool.push_back("");
  rp->s = GenerateStrings(rng, wopts);
  bool durable = rng->Bernoulli(p_durable);
  size_t num_ops = 1 + rng->Uniform(max_ops);
  for (size_t i = 0; i < num_ops; ++i) {
    uint64_t roll = rng->Uniform(100);
    if (roll < 55) {
      rp->r.push_back("u" + std::to_string(rng->Uniform(10)) + "\x1f" +
                      pool[rng->Uniform(pool.size())]);
    } else if (roll < 75) {
      rp->r.push_back("d" + std::to_string(rng->Uniform(10)));
    } else if (roll < 85) {
      rp->r.push_back("s");
    } else if (roll < 92) {
      rp->r.push_back("c");
    } else {
      rp->r.push_back("x");  // no-op unless durable
    }
  }
  return durable;
}

/// The index and maintenance parameters of a churn case.
void SetChurnParams(Rng* rng, bool durable, Reproducer* rp) {
  rp->Set("durable", durable);
  rp->Set("word_tokens", rng->Bernoulli(0.6));
  rp->Set("q", 1 + rng->Uniform(4));
  rp->Set("alpha", 0.2 + 0.6 * rng->NextDouble());
  rp->Set("k", 1 + rng->Uniform(5));
  rp->Set("seal_threshold",
          rng->Bernoulli(0.3) ? 1 + rng->Uniform(8) : uint64_t{0});
  rp->Set("max_generations",
          rng->Bernoulli(0.3) ? 1 + rng->Uniform(3) : uint64_t{0});
}

void GenerateCollections(Rng* rng, const WorkloadOptions& opts, Reproducer* rp) {
  rp->r = GenerateStrings(rng, opts);
  // Self-joins get their own draw: many bugs (and the paper's experiments)
  // are self-join shaped.
  rp->s = rng->Bernoulli(0.3) ? rp->r : GenerateStrings(rng, opts);
}

}  // namespace

std::vector<std::string> AllScenarios() {
  return {"ssjoin_executors",      "edit_distance_joins",
          "edit_similarity_joins", "jaccard_joins",
          "ges_join",              "lookup_service",
          "mutable_index",         "sharded_lookup",
          "filtered_lookup",       "request_dispatch",
          "recall",                "kernel_diff"};
}

Reproducer GenerateCase(const std::string& scenario, uint64_t seed) {
  Reproducer rp;
  rp.scenario = scenario;
  rp.Set("seed", seed);
  Rng rng(HashCombine(HashString(scenario), seed));
  WorkloadOptions wopts;

  if (scenario == "ssjoin_executors") {
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("word_tokens", rng.Bernoulli(0.7));
    rp.Set("q", 1 + rng.Uniform(4));
    rp.Set("weight_mode", rng.Uniform(3));
    rp.Set("pred_kind", rng.Uniform(3));
    rp.Set("alpha", 0.1 + 0.85 * rng.NextDouble());
    rp.Set("threshold", 0.25 + 3.75 * rng.NextDouble());
    rp.Set("threads", 2 + rng.Uniform(3));
    rp.Set("morsel", 1 + rng.Uniform(4));
  } else if (scenario == "edit_distance_joins") {
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("q", 1 + rng.Uniform(4));
    rp.Set("max_distance", rng.Uniform(4));
    rp.Set("algorithm", rng.Uniform(5));
    rp.Set("threads", 1 + rng.Uniform(2));
    rp.Set("morsel", 1 + rng.Uniform(4));
  } else if (scenario == "edit_similarity_joins") {
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("q", 1 + rng.Uniform(4));
    rp.Set("alpha", 0.3 + 0.65 * rng.NextDouble());
    rp.Set("algorithm", rng.Uniform(5));
    rp.Set("threads", 1 + rng.Uniform(2));
    rp.Set("morsel", 1 + rng.Uniform(4));
  } else if (scenario == "jaccard_joins") {
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("word_tokens", rng.Bernoulli(0.6));
    rp.Set("q", 1 + rng.Uniform(4));
    rp.Set("weight_mode", rng.Uniform(3));
    rp.Set("alpha", 0.2 + 0.7 * rng.NextDouble());
    rp.Set("algorithm", rng.Uniform(5));
    rp.Set("threads", 1 + rng.Uniform(2));
    rp.Set("morsel", 1 + rng.Uniform(4));
  } else if (scenario == "ges_join") {
    // GES runs a recursive SSJoin plus a quadratic brute-force oracle; keep
    // the workload small.
    wopts.max_records = 8;
    wopts.max_length = 10;
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("alpha", 0.5 + 0.4 * rng.NextDouble());
  } else if (scenario == "lookup_service") {
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("word_tokens", rng.Bernoulli(0.5));
    rp.Set("q", 1 + rng.Uniform(4));
    rp.Set("alpha", 0.2 + 0.6 * rng.NextDouble());
    rp.Set("k", 1 + rng.Uniform(5));
    rp.Set("threads", 1 + rng.Uniform(4));
  } else if (scenario == "mutable_index") {
    SetChurnParams(&rng, GenerateChurn(&rng, 0.5, 40, &rp), &rp);
  } else if (scenario == "filtered_lookup") {
    // The mutable_index churn shape with content-derived attributes and a
    // seed-drawn predicate: selector one past the drawn attribute range
    // yields zero-match conjuncts, skipped selectors exercise the
    // one-conjunct and NOT-IN-only forms, and f_ghost adds a conjunct on an
    // attribute no doc carries.
    SetChurnParams(&rng, GenerateChurn(&rng, 0.5, 40, &rp), &rp);
    rp.Set("f_country", rng.Uniform(7));  // 5, 6 = no country conjunct
    rp.Set("f_country_neg", rng.Bernoulli(0.4));
    rp.Set("f_country_wide", rng.Bernoulli(0.4));
    rp.Set("f_tier", rng.Uniform(7));  // 5, 6 = no tier conjunct
    rp.Set("f_tier_neg", rng.Bernoulli(0.4));
    rp.Set("f_ghost", rng.Bernoulli(0.2));
    rp.Set("f_ghost_neg", rng.Bernoulli(0.5));
  } else if (scenario == "sharded_lookup") {
    // Same churn shape as mutable_index, but applied to an N-shard index and
    // checked against the 1-shard oracle: random shard counts × interleaved
    // upserts and deletes is exactly where a stats-propagation bug would
    // surface as a one-ULP similarity difference.
    bool durable = GenerateChurn(&rng, 0.4, 30, &rp);
    const uint64_t shard_counts[] = {2, 3, 4, 8};
    rp.Set("shards", shard_counts[rng.Uniform(4)]);
    SetChurnParams(&rng, durable, &rp);
  } else if (scenario == "recall") {
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("word_tokens", rng.Bernoulli(0.7));
    rp.Set("q", 1 + rng.Uniform(4));
    rp.Set("weight_mode", rng.Uniform(3));
    rp.Set("pred_kind", rng.Uniform(3));
    rp.Set("alpha", 0.1 + 0.85 * rng.NextDouble());
    rp.Set("threshold", 0.25 + 3.75 * rng.NextDouble());
    rp.Set("target_recall", 0.6 + 0.35 * rng.NextDouble());
    // Half the cases disable the exact floor so the LSH path is exercised
    // even at fuzz-sized workloads.
    rp.Set("exact_floor", rng.Bernoulli(0.5));
    rp.Set("minhash_seed", rng.Next());
    rp.Set("threads", 2 + rng.Uniform(3));
    rp.Set("morsel", 1 + rng.Uniform(4));
  } else if (scenario == "kernel_diff") {
    size_t pairs = 1 + rng.Uniform(8);
    for (size_t i = 0; i < pairs; ++i) {
      rp.r.push_back(GenerateKernelSpan(&rng));
      rp.s.push_back(GenerateKernelSpan(&rng));
    }
  } else if (scenario == "request_dispatch") {
    // Lean harder on the adversarial string classes: control bytes, high
    // bytes and empty strings are exactly what a wire parser mishandles.
    wopts.p_high_byte = 0.25;
    wopts.p_empty = 0.15;
    GenerateCollections(&rng, wopts, &rp);
    rp.Set("k", 1 + rng.Uniform(10));
    rp.Set("deadline_ms", rng.Uniform(200));
    rp.Set("mutations", 16 + rng.Uniform(48));
    rp.Set("mutate_seed", rng.Next());
  } else {
    // Unknown scenario: leave an empty workload; CheckCase will reject it.
  }
  return rp;
}

Result<CheckResult> CheckCase(const Reproducer& repro) {
  if (repro.scenario == "ssjoin_executors") return CheckSSJoinExecutors(repro);
  if (repro.scenario == "edit_distance_joins") {
    return CheckEditDistanceJoins(repro);
  }
  if (repro.scenario == "edit_similarity_joins") {
    return CheckEditSimilarityJoins(repro);
  }
  if (repro.scenario == "jaccard_joins") return CheckJaccardJoins(repro);
  if (repro.scenario == "ges_join") return CheckGESJoin(repro);
  if (repro.scenario == "lookup_service") return CheckLookupService(repro);
  if (repro.scenario == "mutable_index") return CheckMutableIndex(repro);
  if (repro.scenario == "sharded_lookup") return CheckShardedLookup(repro);
  if (repro.scenario == "filtered_lookup") return CheckFilteredLookup(repro);
  if (repro.scenario == "request_dispatch") return CheckRequestDispatch(repro);
  if (repro.scenario == "recall") return CheckRecall(repro);
  if (repro.scenario == "kernel_diff") return CheckKernelDiff(repro);
  return Status::Invalid("unknown fuzz scenario: " + repro.scenario);
}

Result<FuzzReport> RunFuzz(const FuzzOptions& options) {
  std::vector<std::string> scenarios;
  if (options.scenario == "all") {
    scenarios = AllScenarios();
  } else {
    std::vector<std::string> known = AllScenarios();
    if (std::find(known.begin(), known.end(), options.scenario) == known.end()) {
      return Status::Invalid("unknown fuzz scenario: " + options.scenario);
    }
    scenarios.push_back(options.scenario);
  }

  FuzzReport report;
  for (uint64_t seed = options.start_seed;
       seed < options.start_seed + options.seeds; ++seed) {
    for (const std::string& scenario : scenarios) {
      Reproducer rp = GenerateCase(scenario, seed);
      SSJOIN_ASSIGN_OR_RETURN(CheckResult res, CheckCase(rp));
      ++report.cases_run;
      if (options.verbose) {
        std::fprintf(stderr, "[fuzz] %s seed=%llu: %s\n", scenario.c_str(),
                     static_cast<unsigned long long>(seed),
                     res.pass ? "ok" : res.detail.c_str());
      }
      if (res.pass) continue;

      ++report.failures;
      if (report.first_failure_detail.empty()) {
        report.first_failure_detail = res.detail;
      }
      if (options.shrink) {
        ShrinkStats shrink_stats;
        rp = ShrinkReproducer(
            rp,
            [](const Reproducer& candidate) {
              Result<CheckResult> r = CheckCase(candidate);
              return !r.ok() || !r->pass;
            },
            options.max_shrink_checks, &shrink_stats);
        if (options.verbose) {
          std::fprintf(stderr,
                       "[fuzz] shrunk to %zu+%zu records (%zu checks, "
                       "-%zu records, -%zu bytes)\n",
                       rp.r.size(), rp.s.size(), shrink_stats.checks_run,
                       shrink_stats.records_removed, shrink_stats.bytes_removed);
        }
      }
      if (!options.out_dir.empty()) {
        std::string path = options.out_dir + "/" + scenario + "-seed" +
                           std::to_string(seed) + ".repro";
        Status saved = SaveReproducerFile(rp, path);
        if (!saved.ok()) return saved;
        report.reproducer_paths.push_back(path);
      }
      if (report.failures >= options.max_failures) return report;
    }
  }
  return report;
}

}  // namespace ssjoin::fuzz
