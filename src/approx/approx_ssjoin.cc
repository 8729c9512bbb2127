#include "approx/approx_ssjoin.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/timer.h"
#include "core/cost_model.h"
#include "core/inverted_index.h"
#include "exec/parallel_for.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"

namespace ssjoin::approx {

namespace {

using core::GroupId;
using core::ProbeScratch;
using core::SSJoinPair;
using core::SSJoinStats;

/// Per-morsel output slot; concatenating slots in morsel order makes the
/// result independent of scheduling.
struct MorselOutput {
  std::vector<SSJoinPair> pairs;
  size_t equijoin_rows = 0;
  size_t candidate_pairs = 0;
  size_t bands_probed = 0;
};

/// Per-worker scratch: candidate dedup plus the verify marks.
struct WorkerScratch {
  ProbeScratch probe;
  kernels::MarkedSet marks;
};

/// Exact candidate generation (recall 1.0): probe the inverted index over S
/// with every element of each R-group. The fallback tier for small inputs
/// and infeasible band budgets.
std::vector<SSJoinPair> RunExactTier(const core::SetsRelation& r,
                                     const core::SetsRelation& s,
                                     const core::OverlapPredicate& pred,
                                     const core::SSJoinContext& ctx,
                                     SSJoinStats* stats) {
  const core::WeightVector& w = *ctx.weights;
  size_t num_elements = core::MaxElementId(r, s) + 1;
  core::InvertedIndex s_index(s.store, num_elements);

  const exec::ExecContext& ec = exec::OrDefault(ctx.exec);
  std::vector<MorselOutput> morsels(exec::NumMorsels(ec, r.num_groups()));
  std::vector<WorkerScratch> scratch(exec::NumWorkers(ec, r.num_groups()));

  exec::ParallelFor(ec, r.num_groups(),
                    [&](size_t worker, size_t m, size_t begin, size_t end) {
                      ProbeScratch& sc = scratch[worker].probe;
                      kernels::MarkedSet& marks = scratch[worker].marks;
                      sc.EnsureSize(s.num_groups());
                      marks.Bind(w);
                      MorselOutput& out = morsels[m];
                      for (size_t g = begin; g < end; ++g) {
                        auto rg = static_cast<GroupId>(g);
                        if (r.set(rg).empty()) continue;
                        uint32_t epoch = sc.NextEpoch();
                        sc.cands.clear();
                        for (text::TokenId e : r.set(rg)) {
                          auto [p, p_end] = s_index.Lookup(e);
                          out.equijoin_rows += static_cast<size_t>(p_end - p);
                          kernels::ProbePostings({p, p_end}, epoch,
                                                 sc.seen.data(), &sc.cands, &sc.tally);
                        }
                        out.candidate_pairs += sc.cands.size();
                        core::VerifyCandidates(r, rg, s, sc.cands, pred,
                                               &marks, &out.pairs);
                      }
                      marks.Flush();
                      sc.tally.Flush();
                    });

  std::vector<SSJoinPair> out;
  for (MorselOutput& m : morsels) {
    stats->equijoin_rows += m.equijoin_rows;
    stats->candidate_pairs += m.candidate_pairs;
    out.insert(out.end(), m.pairs.begin(), m.pairs.end());
  }
  return out;
}

/// LSH candidate generation: bucket S-groups by band keys, probe each
/// R-group's bands, verify collisions exactly.
std::vector<SSJoinPair> RunLshTier(const core::SetsRelation& r,
                                   const core::SetsRelation& s,
                                   const core::OverlapPredicate& pred,
                                   const core::SSJoinContext& ctx,
                                   const BandPlan& plan, uint64_t seed,
                                   SSJoinStats* stats, size_t* bands_probed) {
  const core::WeightVector& w = *ctx.weights;
  size_t num_hashes = plan.num_hashes();

  obs::Registry& reg = obs::Registry::Global();
  Timer sig_timer;
  SignatureMatrix r_sig = BuildSignatures(r.store, num_hashes, seed, ctx.exec);
  // Self-joins share one store; reuse the R signatures bit-for-bit then.
  bool same_store = &r.store == &s.store;
  SignatureMatrix s_sig =
      same_store ? SignatureMatrix{} : BuildSignatures(s.store, num_hashes,
                                                       seed, ctx.exec);
  const SignatureMatrix& s_sigs = same_store ? r_sig : s_sig;
  double sig_ms = sig_timer.ElapsedMillis();
  stats->phases.Add("Signature", sig_ms);
  reg.GetCounter("approx.phase.signature.us")
      ->Add(static_cast<uint64_t>(sig_ms * 1000.0));
  reg.GetCounter("approx.phase.signature.count")->Add(1);

  // Band buckets over S, built in ascending group order so every bucket list
  // is deterministic. Cross-band key collisions only add extra verified
  // candidates — never wrong results.
  std::unordered_map<uint64_t, std::vector<GroupId>> buckets;
  buckets.reserve(static_cast<size_t>(s.num_groups()) * plan.bands / 2 + 1);
  for (GroupId sg = 0; sg < s.num_groups(); ++sg) {
    if (s.set(sg).empty()) continue;
    std::span<const uint64_t> row = s_sigs.row(sg);
    for (size_t b = 0; b < plan.bands; ++b) {
      buckets[BandKey(row, b, plan.rows)].push_back(sg);
    }
  }

  const exec::ExecContext& ec = exec::OrDefault(ctx.exec);
  std::vector<MorselOutput> morsels(exec::NumMorsels(ec, r.num_groups()));
  std::vector<WorkerScratch> scratch(exec::NumWorkers(ec, r.num_groups()));

  exec::ParallelFor(
      ec, r.num_groups(), [&](size_t worker, size_t m, size_t begin, size_t end) {
        ProbeScratch& sc = scratch[worker].probe;
        kernels::MarkedSet& marks = scratch[worker].marks;
        sc.EnsureSize(s.num_groups());
        marks.Bind(w);
        MorselOutput& out = morsels[m];
        for (size_t g = begin; g < end; ++g) {
          auto rg = static_cast<GroupId>(g);
          if (r.set(rg).empty()) continue;
          uint32_t epoch = sc.NextEpoch();
          std::span<const uint64_t> row = r_sig.row(rg);
          sc.cands.clear();
          for (size_t b = 0; b < plan.bands; ++b) {
            ++out.bands_probed;
            auto it = buckets.find(BandKey(row, b, plan.rows));
            if (it == buckets.end()) continue;
            out.equijoin_rows += it->second.size();
            kernels::ProbePostings(
                {it->second.data(), it->second.size()}, epoch,
                sc.seen.data(), &sc.cands, &sc.tally);
          }
          out.candidate_pairs += sc.cands.size();
          core::VerifyCandidates(r, rg, s, sc.cands, pred, &marks, &out.pairs);
        }
        marks.Flush();
        sc.tally.Flush();
      });

  std::vector<SSJoinPair> out;
  for (MorselOutput& m : morsels) {
    stats->equijoin_rows += m.equijoin_rows;
    stats->candidate_pairs += m.candidate_pairs;
    *bands_probed += m.bands_probed;
    out.insert(out.end(), m.pairs.begin(), m.pairs.end());
  }
  return out;
}

/// Samples up to `sample` R-groups (fixed stride, so the sample is a pure
/// function of the input sizes), re-derives their exact result counts via
/// full inverted-index probing, and returns the measured recall of `pairs`
/// over the sample. Precision is 1.0 by construction, so counting suffices.
double MeasureRecall(const core::SetsRelation& r, const core::SetsRelation& s,
                     const core::OverlapPredicate& pred,
                     const core::SSJoinContext& ctx,
                     const std::vector<SSJoinPair>& pairs, size_t sample) {
  const core::WeightVector& w = *ctx.weights;
  size_t num_elements = core::MaxElementId(r, s) + 1;
  core::InvertedIndex s_index(s.store, num_elements);

  // Approximate result counts per R-group, one linear pass.
  std::unordered_map<GroupId, size_t> got_counts;
  for (const SSJoinPair& p : pairs) ++got_counts[p.r];

  size_t stride = std::max<size_t>(1, r.num_groups() / std::max<size_t>(1, sample));
  ProbeScratch sc;
  sc.EnsureSize(s.num_groups());
  kernels::MarkedSet marks;
  marks.Bind(w);
  std::vector<SSJoinPair> exact;
  size_t exact_total = 0;
  size_t got_total = 0;
  for (size_t g = 0; g < r.num_groups(); g += stride) {
    auto rg = static_cast<GroupId>(g);
    if (r.set(rg).empty()) continue;
    uint32_t epoch = sc.NextEpoch();
    sc.cands.clear();
    for (text::TokenId e : r.set(rg)) {
      auto [p, p_end] = s_index.Lookup(e);
      kernels::ProbePostings({p, p_end}, epoch, sc.seen.data(), &sc.cands, &sc.tally);
    }
    exact.clear();
    core::VerifyCandidates(r, rg, s, sc.cands, pred, &marks, &exact);
    exact_total += exact.size();
    auto it = got_counts.find(rg);
    if (it != got_counts.end()) got_total += it->second;
  }
  marks.Flush();
  sc.tally.Flush();
  return exact_total > 0
             ? static_cast<double>(got_total) / static_cast<double>(exact_total)
             : 1.0;
}

}  // namespace

Result<std::vector<SSJoinPair>> ApproxSSJoin::Execute(
    const core::SetsRelation& r, const core::SetsRelation& s,
    const core::OverlapPredicate& pred, const core::SSJoinContext& ctx,
    SSJoinStats* stats) const {
  SSJOIN_RETURN_NOT_OK(
      core::ValidateSSJoinInputs(r, s, ctx, /*needs_order=*/false));
  if (!(params_.target_recall > 0.0) || params_.target_recall > 1.0) {
    return Status::Invalid("target_recall must be in (0, 1]");
  }
  SSJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  obs::Registry& reg = obs::Registry::Global();
  reg.GetCounter("approx.joins")->Add(1);

  BandPlan plan = TuneBands(r, s, pred, *ctx.weights, params_);
  Timer join_timer;
  std::vector<SSJoinPair> out;
  size_t bands_probed = 0;
  if (plan.use_lsh) {
    reg.GetCounter("approx.lsh_joins")->Add(1);
    out = RunLshTier(r, s, pred, ctx, plan, params_.seed, stats, &bands_probed);
  } else {
    reg.GetCounter("approx.exact_fallbacks")->Add(1);
    out = RunExactTier(r, s, pred, ctx, stats);
  }
  stats->result_pairs = out.size();
  stats->phases.Add("SSJoin", join_timer.ElapsedMillis());

  reg.GetCounter("approx.bands_probed")->Add(bands_probed);
  reg.GetCounter("approx.candidates")->Add(stats->candidate_pairs);
  reg.GetGauge("approx.signature_hashes")
      ->Set(static_cast<int64_t>(plan.num_hashes()));

  // Measured-recall gauge from sampled exact re-checks. The exact tier is
  // complete by construction; report it as such without re-probing.
  double recall = 1.0;
  if (plan.use_lsh && params_.recall_sample > 0) {
    recall = MeasureRecall(r, s, pred, ctx, out, params_.recall_sample);
  }
  reg.GetGauge("approx.measured_recall_ppm")
      ->Set(static_cast<int64_t>(std::llround(recall * 1e6)));
  return out;
}

Result<std::vector<SSJoinPair>> ExecuteSSJoin(
    core::SSJoinAlgorithm algorithm, const core::SetsRelation& r,
    const core::SetsRelation& s, const core::OverlapPredicate& pred,
    const core::SSJoinContext& ctx, const ApproxParams& params,
    SSJoinStats* stats, core::SSJoinAlgorithm* resolved) {
  if (algorithm == core::SSJoinAlgorithm::kHybrid) {
    core::HybridRoutingDecision decision = core::ChooseHybridTier(r, s, pred, ctx);
    algorithm = decision.chosen;
    obs::Registry::Global()
        .GetCounter(algorithm == core::SSJoinAlgorithm::kApprox
                        ? "approx.hybrid_to_approx"
                        : "approx.hybrid_to_exact")
        ->Add(1);
  }
  if (resolved != nullptr) *resolved = algorithm;
  if (algorithm == core::SSJoinAlgorithm::kApprox) {
    SSJoinStats local_stats;
    if (stats == nullptr) stats = &local_stats;
    ApproxSSJoin executor(params);
    Result<std::vector<SSJoinPair>> result =
        executor.Execute(r, s, pred, ctx, stats);
    // Published here exactly once per join, as core::ExecuteSSJoin does for
    // the exact algorithms.
    if (result.ok()) core::PublishSSJoinStats(*stats);
    return result;
  }
  return core::ExecuteSSJoin(algorithm, r, s, pred, ctx, stats);
}

void RegisterApproxMetrics() {
  obs::Registry& reg = obs::Registry::Global();
  for (const char* name :
       {"approx.joins", "approx.lsh_joins", "approx.exact_fallbacks",
        "approx.bands_probed", "approx.candidates", "approx.hybrid_to_approx",
        "approx.hybrid_to_exact", "approx.phase.signature.us",
        "approx.phase.signature.count"}) {
    reg.GetCounter(name);
  }
  reg.GetGauge("approx.signature_hashes");
  reg.GetGauge("approx.measured_recall_ppm");
}

}  // namespace ssjoin::approx
