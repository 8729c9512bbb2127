#include "core/ssjoin.h"

#include <algorithm>
#include <cstring>

#include "common/logging.h"
#include "core/inverted_index.h"
#include "exec/parallel_for.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"

namespace ssjoin::core {

Status ValidateSSJoinInputs(const SetsRelation& r, const SetsRelation& s,
                            const SSJoinContext& ctx, bool needs_order) {
  if (ctx.weights == nullptr) {
    return Status::Invalid("SSJoinContext.weights must be set");
  }
  if (needs_order && ctx.order == nullptr) {
    return Status::Invalid("this SSJoin algorithm requires an element order");
  }
  if (r.norms.size() != r.num_groups() || s.norms.size() != s.num_groups() ||
      r.set_weights.size() != r.num_groups() ||
      s.set_weights.size() != s.num_groups()) {
    return Status::Invalid("SetsRelation columns have inconsistent lengths");
  }
  if (r.total_elements() + s.total_elements() > 0) {
    size_t max_id = MaxElementId(r, s);
    if (max_id >= ctx.weights->size()) {
      return Status::Invalid("weights vector does not cover all element ids");
    }
    if (needs_order && max_id >= ctx.order->num_elements()) {
      return Status::Invalid("element order does not cover all element ids");
    }
  }
  return Status::OK();
}

void VerifyCandidates(const SetsRelation& r, GroupId rg, const SetsRelation& s,
                      std::span<const GroupId> cands,
                      const OverlapPredicate& pred, kernels::MarkedSet* marks,
                      std::vector<SSJoinPair>* out, bool mirror) {
  marks->Mark(r.set(rg));
  const double r_norm = r.norms[rg];
  for (GroupId sg : cands) {
    const double s_norm = s.norms[sg];
    const bool both = mirror && sg != rg;
    double min_overlap = pred.MinPassingOverlap(r_norm, s_norm);
    if (both) {
      min_overlap =
          std::min(min_overlap, pred.MinPassingOverlap(s_norm, r_norm));
    }
    double overlap = 0.0;
    if (!marks->OverlapAtLeast(s.set(sg), s.set_weights[sg], min_overlap,
                              &overlap) ||
        overlap <= 0.0) {
      continue;
    }
    if (pred.Test(overlap, r_norm, s_norm)) out->push_back({rg, sg, overlap});
    if (both && pred.Test(overlap, s_norm, r_norm)) {
      out->push_back({sg, rg, overlap});
    }
  }
}

namespace {

using exec::ParallelFor;

/// One morsel's private output: result pairs plus a stats record holding
/// only counters (phase timings stay with the coordinating thread).
struct MorselOutput {
  std::vector<SSJoinPair> pairs;
  SSJoinStats stats;
};

/// Concatenates per-morsel outputs in morsel order — this, not completion
/// order, is what makes the output independent of the thread count.
void MergeMorselOutputs(std::vector<MorselOutput>& morsels,
                        std::vector<SSJoinPair>* pairs, SSJoinStats* stats) {
  size_t total = 0;
  for (const MorselOutput& m : morsels) total += m.pairs.size();
  pairs->reserve(pairs->size() + total);
  for (MorselOutput& m : morsels) {
    stats->Merge(m.stats);
    pairs->insert(pairs->end(), m.pairs.begin(), m.pairs.end());
  }
}

/// Candidate generation shared by the two prefix-filter variants: the
/// equi-join of R-group `rg`'s prefix with the indexed S prefixes,
/// deduplicated with the worker's scratch. Calls `emit(rg, s_groups)`, the
/// S-groups in first-seen order, unless there are none.
///
/// With `triangle` (a symmetric self-join, whose `s_index` indexes R's own
/// prefixes), each posting list is cut at upper_bound(rg): only S-groups
/// sg <= rg are probed, so every unordered pair is a candidate once, the
/// diagonal pair (rg, rg) included.
template <typename EmitFn>
void GeneratePrefixCandidates(const PrefixFilteredRelation& r_pref,
                              const InvertedIndex& s_index, GroupId rg,
                              bool triangle, ProbeScratch& scratch,
                              SSJoinStats* stats, const EmitFn& emit) {
  SetView prefix = r_pref.prefixes.view(rg);
  if (prefix.empty()) return;
  uint32_t epoch = scratch.NextEpoch();
  scratch.cands.clear();
  for (text::TokenId e : prefix) {
    auto [begin, end] = s_index.Lookup(e);
    if (triangle) end = std::upper_bound(begin, end, rg);
    stats->equijoin_rows += static_cast<size_t>(end - begin);
    kernels::ProbePostings({begin, end}, epoch, scratch.seen.data(),
                           &scratch.cands, &scratch.tally);
  }
  if (!scratch.cands.empty()) emit(rg, scratch.cands);
}

class NaiveSSJoin final : public SSJoinExecutor {
 public:
  std::string name() const override { return "naive"; }

  Result<std::vector<SSJoinPair>> Execute(const SetsRelation& r,
                                          const SetsRelation& s,
                                          const OverlapPredicate& pred,
                                          const SSJoinContext& ctx,
                                          SSJoinStats* stats) const override {
    SSJOIN_RETURN_NOT_OK(ValidateSSJoinInputs(r, s, ctx, /*needs_order=*/false));
    const WeightVector& w = *ctx.weights;
    const exec::ExecContext& ec = exec::OrDefault(ctx.exec);
    Timer timer;
    // Every S-group is a candidate of every R-group.
    std::vector<GroupId> all_s(s.num_groups());
    for (GroupId sg = 0; sg < s.num_groups(); ++sg) all_s[sg] = sg;
    std::vector<kernels::MarkedSet> marks(exec::NumWorkers(ec, r.num_groups()));
    std::vector<MorselOutput> morsels(exec::NumMorsels(ec, r.num_groups()));
    ParallelFor(ec, r.num_groups(),
                [&](size_t worker, size_t m, size_t begin, size_t end) {
                  kernels::MarkedSet& mk = marks[worker];
                  mk.Bind(w);
                  MorselOutput& out = morsels[m];
                  for (size_t g = begin; g < end; ++g) {
                    out.stats.candidate_pairs += all_s.size();
                    VerifyCandidates(r, static_cast<GroupId>(g), s, all_s,
                                     pred, &mk, &out.pairs);
                  }
                  mk.Flush();
                });
    std::vector<SSJoinPair> out;
    MergeMorselOutputs(morsels, &out, stats);
    stats->result_pairs = out.size();
    stats->phases.Add("SSJoin", timer.ElapsedMillis());
    return out;
  }
};

class BasicSSJoin final : public SSJoinExecutor {
 public:
  std::string name() const override { return "basic"; }

  Result<std::vector<SSJoinPair>> Execute(const SetsRelation& r,
                                          const SetsRelation& s,
                                          const OverlapPredicate& pred,
                                          const SSJoinContext& ctx,
                                          SSJoinStats* stats) const override {
    SSJOIN_RETURN_NOT_OK(ValidateSSJoinInputs(r, s, ctx, /*needs_order=*/false));
    const WeightVector& w = *ctx.weights;
    const exec::ExecContext& ec = exec::OrDefault(ctx.exec);
    Timer timer;

    // Equi-join R.B = S.B, materialized as (r, s, weight) rows. The inverted
    // index over S is the hash table of a hash join with R as probe side.
    size_t num_elements = MaxElementId(r, s) + 1;
    InvertedIndex s_index(s.store, num_elements);
    struct JoinRow {
      uint64_t key;  // (r << 32) | s
      double weight;
    };

    // Each morsel materializes, sorts and aggregates the rows of its own
    // R-range. Keys lead with r, so per-morsel sorted runs concatenated in
    // morsel order are the globally sorted row stream.
    std::vector<std::vector<JoinRow>> scratch(exec::NumWorkers(ec, r.num_groups()));
    std::vector<MorselOutput> morsels(exec::NumMorsels(ec, r.num_groups()));
    ParallelFor(ec, r.num_groups(),
                [&](size_t worker, size_t m, size_t begin, size_t end) {
                  MorselOutput& out = morsels[m];
                  std::vector<JoinRow>& rows = scratch[worker];
                  // Size the join output exactly (sum of per-element
                  // posting lengths), as a hash join's build-side
                  // statistics would.
                  size_t total_rows = 0;
                  for (size_t g = begin; g < end; ++g) {
                    for (text::TokenId e : r.set(static_cast<GroupId>(g))) {
                      auto [lo, hi] = s_index.Lookup(e);
                      total_rows += static_cast<size_t>(hi - lo);
                    }
                  }
                  rows.clear();
                  rows.reserve(total_rows);
                  for (size_t g = begin; g < end; ++g) {
                    for (text::TokenId e : r.set(static_cast<GroupId>(g))) {
                      auto [lo, hi] = s_index.Lookup(e);
                      double we = w[e];
                      for (const GroupId* p = lo; p != hi; ++p) {
                        rows.push_back({(static_cast<uint64_t>(g) << 32) | *p, we});
                      }
                    }
                  }
                  out.stats.equijoin_rows = rows.size();

                  // Group by (R.A, S.A): sort on the packed key, then
                  // aggregate runs and apply the HAVING clause. The sort is
                  // stable so equal-key rows keep generation (element)
                  // order, and per-pair weight sums come out bit-identical
                  // wherever the morsel boundaries fall.
                  std::stable_sort(rows.begin(), rows.end(),
                                   [](const JoinRow& a, const JoinRow& b) {
                                     return a.key < b.key;
                                   });
                  size_t i = 0;
                  while (i < rows.size()) {
                    uint64_t key = rows[i].key;
                    double overlap = 0.0;
                    while (i < rows.size() && rows[i].key == key) {
                      overlap += rows[i].weight;
                      ++i;
                    }
                    ++out.stats.candidate_pairs;
                    auto rg = static_cast<GroupId>(key >> 32);
                    auto sg = static_cast<GroupId>(key & 0xffffffffu);
                    if (pred.Test(overlap, r.norms[rg], s.norms[sg])) {
                      out.pairs.push_back({rg, sg, overlap});
                    }
                  }
                });
    std::vector<SSJoinPair> out;
    MergeMorselOutputs(morsels, &out, stats);
    stats->result_pairs = out.size();
    stats->phases.Add("SSJoin", timer.ElapsedMillis());
    return out;
  }
};

class InvertedIndexSSJoin final : public SSJoinExecutor {
 public:
  std::string name() const override { return "inverted-index"; }

  Result<std::vector<SSJoinPair>> Execute(const SetsRelation& r,
                                          const SetsRelation& s,
                                          const OverlapPredicate& pred,
                                          const SSJoinContext& ctx,
                                          SSJoinStats* stats) const override {
    SSJOIN_RETURN_NOT_OK(ValidateSSJoinInputs(r, s, ctx, /*needs_order=*/false));
    const WeightVector& w = *ctx.weights;
    const exec::ExecContext& ec = exec::OrDefault(ctx.exec);
    Timer timer;
    size_t num_elements = MaxElementId(r, s) + 1;
    InvertedIndex s_index(s.store, num_elements);

    // Score accumulation: stream R groups, accumulate per-S overlap in a
    // dense epoch-marked per-worker accumulator (the OptMerge-style plan of
    // [13]).
    struct Scratch {
      std::vector<double> acc;
      ProbeScratch probe;  // `cands` holds the touched S-groups
    };
    std::vector<Scratch> scratch(exec::NumWorkers(ec, r.num_groups()));
    std::vector<MorselOutput> morsels(exec::NumMorsels(ec, r.num_groups()));
    ParallelFor(ec, r.num_groups(),
                [&](size_t worker, size_t m, size_t begin, size_t end) {
                  Scratch& sc = scratch[worker];
                  sc.acc.resize(s.num_groups(), 0.0);
                  sc.probe.EnsureSize(s.num_groups());
                  std::vector<GroupId>& touched = sc.probe.cands;
                  MorselOutput& out = morsels[m];
                  for (size_t g = begin; g < end; ++g) {
                    auto rg = static_cast<GroupId>(g);
                    uint32_t epoch = sc.probe.NextEpoch();
                    touched.clear();
                    for (text::TokenId e : r.set(rg)) {
                      auto [lo, hi] = s_index.Lookup(e);
                      out.stats.equijoin_rows += static_cast<size_t>(hi - lo);
                      kernels::AccumulatePostings({lo, hi}, w[e], epoch,
                                                  sc.probe.seen.data(),
                                                  sc.acc.data(), &touched,
                                                  &sc.probe.tally);
                    }
                    out.stats.candidate_pairs += touched.size();
                    for (GroupId sg : touched) {
                      if (pred.Test(sc.acc[sg], r.norms[rg], s.norms[sg])) {
                        out.pairs.push_back({rg, sg, sc.acc[sg]});
                      }
                    }
                  }
                  sc.probe.tally.Flush();
                });
    std::vector<SSJoinPair> out;
    MergeMorselOutputs(morsels, &out, stats);
    stats->result_pairs = out.size();
    stats->phases.Add("SSJoin", timer.ElapsedMillis());
    return out;
  }
};

class PrefixFilterSSJoin final : public SSJoinExecutor {
 public:
  std::string name() const override { return "prefix-filter"; }

  Result<std::vector<SSJoinPair>> Execute(const SetsRelation& r,
                                          const SetsRelation& s,
                                          const OverlapPredicate& pred,
                                          const SSJoinContext& ctx,
                                          SSJoinStats* stats) const override {
    SSJOIN_RETURN_NOT_OK(ValidateSSJoinInputs(r, s, ctx, /*needs_order=*/true));
    const WeightVector& w = *ctx.weights;
    const exec::ExecContext& ec = exec::OrDefault(ctx.exec);

    // Phase 1: prefix-filter both relations (Figure 8, bottom operators).
    Timer prefix_timer;
    PrefixFilteredRelation r_pref =
        PrefixFilterRelation(r, w, *ctx.order, pred, JoinSide::kR, ec);
    PrefixFilteredRelation s_pref =
        PrefixFilterRelation(s, w, *ctx.order, pred, JoinSide::kS, ec);
    RecordPrefixStats(r, s, r_pref, s_pref, stats);
    size_t num_elements = MaxElementId(r, s) + 1;
    InvertedIndex s_index(s_pref.prefixes, num_elements);
    stats->phases.Add("Prefix-filter", prefix_timer.ElapsedMillis());

    // Phase 2: equi-join the prefixes to produce candidate <R.A, S.A> pairs,
    // partitioned over R-groups; per-morsel candidate runs concatenated in
    // morsel order give the candidate sequence of a single scan.
    Timer join_timer;
    struct Candidate {
      GroupId r;
      GroupId s;
    };
    struct CandMorsel {
      std::vector<Candidate> cands;
      SSJoinStats stats;
    };
    std::vector<ProbeScratch> probe(exec::NumWorkers(ec, r.num_groups()));
    std::vector<CandMorsel> cand_morsels(exec::NumMorsels(ec, r.num_groups()));
    ParallelFor(ec, r.num_groups(),
                [&](size_t worker, size_t m, size_t begin, size_t end) {
                  ProbeScratch& sc = probe[worker];
                  sc.EnsureSize(s.num_groups());
                  CandMorsel& out = cand_morsels[m];
                  for (size_t g = begin; g < end; ++g) {
                    GeneratePrefixCandidates(
                        r_pref, s_index, static_cast<GroupId>(g),
                        /*triangle=*/false, sc, &out.stats,
                        [&](GroupId rg, const std::vector<GroupId>& ss) {
                          for (GroupId sg : ss) out.cands.push_back({rg, sg});
                        });
                  }
                  sc.tally.Flush();
                });
    std::vector<Candidate> candidates;
    size_t total = 0;
    for (const CandMorsel& m : cand_morsels) total += m.cands.size();
    candidates.reserve(total);
    for (const CandMorsel& m : cand_morsels) {
      stats->Merge(m.stats);
      candidates.insert(candidates.end(), m.cands.begin(), m.cands.end());
    }
    stats->candidate_pairs = candidates.size();

    // Phase 3: re-join the candidates with the *base* relations and group by
    // the pair to compute the overlap (the two upper joins + group-by of
    // Figure 8), range-partitioned over the candidate array. The re-join is
    // materialized as (candidate, weight) rows — this materialization is
    // exactly the cost the inline variant avoids.
    struct VerifyRow {
      uint32_t candidate;
      double weight;
    };
    struct VerifyScratch {
      std::vector<VerifyRow> rows;
      std::vector<text::TokenId> matched;
      kernels::KernelTally tally;
    };
    std::vector<VerifyScratch> verify(exec::NumWorkers(ec, candidates.size()));
    std::vector<MorselOutput> verify_morsels(
        exec::NumMorsels(ec, candidates.size()));
    ParallelFor(
        ec, candidates.size(),
        [&](size_t worker, size_t m, size_t begin, size_t end) {
          VerifyScratch& sc = verify[worker];
          sc.rows.clear();
          for (size_t c = begin; c < end; ++c) {
            SetView rset = r.set(candidates[c].r);
            SetView sset = s.set(candidates[c].s);
            sc.matched.resize(std::min(rset.size(), sset.size()));
            size_t n =
                kernels::IntersectTokens(rset, sset, sc.matched.data(), &sc.tally);
            for (size_t k = 0; k < n; ++k) {
              sc.rows.push_back({static_cast<uint32_t>(c), w[sc.matched[k]]});
            }
          }
          // Group by candidate (rows are clustered by construction) +
          // HAVING; a candidate whose sets do not intersect has no rows.
          MorselOutput& out = verify_morsels[m];
          size_t i = 0;
          while (i < sc.rows.size()) {
            uint32_t c = sc.rows[i].candidate;
            double overlap = 0.0;
            while (i < sc.rows.size() && sc.rows[i].candidate == c) {
              overlap += sc.rows[i].weight;
              ++i;
            }
            GroupId rg = candidates[c].r;
            GroupId sg = candidates[c].s;
            if (pred.Test(overlap, r.norms[rg], s.norms[sg])) {
              out.pairs.push_back({rg, sg, overlap});
            }
          }
          sc.tally.Flush();
        });
    std::vector<SSJoinPair> out;
    MergeMorselOutputs(verify_morsels, &out, stats);
    stats->result_pairs = out.size();
    stats->phases.Add("SSJoin", join_timer.ElapsedMillis());
    return out;
  }

 private:
  static void RecordPrefixStats(const SetsRelation& r, const SetsRelation& s,
                                const PrefixFilteredRelation& r_pref,
                                const PrefixFilteredRelation& s_pref,
                                SSJoinStats* stats) {
    stats->r_prefix_elements = r_pref.total_prefix_elements();
    stats->s_prefix_elements = s_pref.total_prefix_elements();
    for (GroupId g = 0; g < r.num_groups(); ++g) {
      if (r_pref.prefixes.elements(g).empty() && !r.set(g).empty()) {
        ++stats->pruned_groups_r;
      }
    }
    for (GroupId g = 0; g < s.num_groups(); ++g) {
      if (s_pref.prefixes.elements(g).empty() && !s.set(g).empty()) {
        ++stats->pruned_groups_s;
      }
    }
  }
};

class InlinePrefixFilterSSJoin final : public SSJoinExecutor {
 public:
  std::string name() const override { return "prefix-filter-inline"; }

  Result<std::vector<SSJoinPair>> Execute(const SetsRelation& r,
                                          const SetsRelation& s,
                                          const OverlapPredicate& pred,
                                          const SSJoinContext& ctx,
                                          SSJoinStats* stats) const override {
    SSJOIN_RETURN_NOT_OK(ValidateSSJoinInputs(r, s, ctx, /*needs_order=*/true));
    const WeightVector& w = *ctx.weights;
    const exec::ExecContext& ec = exec::OrDefault(ctx.exec);
    // The triangle path: R passed as S under a symmetric predicate. Both
    // sides then have the same prefixes, the pair set is closed under
    // swapping, and each unordered pair is probed and verified once.
    const bool triangle = &r == &s && pred.IsSymmetric();

    Timer prefix_timer;
    PrefixFilteredRelation r_pref =
        PrefixFilterRelation(r, w, *ctx.order, pred, JoinSide::kR, ec);
    PrefixFilteredRelation s_own;
    if (!triangle) {
      s_own = PrefixFilterRelation(s, w, *ctx.order, pred, JoinSide::kS, ec);
    }
    const PrefixFilteredRelation& s_pref = triangle ? r_pref : s_own;
    stats->r_prefix_elements = r_pref.total_prefix_elements();
    stats->s_prefix_elements = s_pref.total_prefix_elements();
    size_t num_elements = MaxElementId(r, s) + 1;
    InvertedIndex s_index(s_pref.prefixes, num_elements);
    stats->phases.Add("Prefix-filter", prefix_timer.ElapsedMillis());

    // Candidates carry their groups inline (Figure 9): the overlap of each
    // candidate pair is computed directly from the two stored sets (the
    // overlap "UDF", VerifyCandidates), with no join back to the base
    // relations.
    // Generation and the UDF run in the same morsel, partitioned over
    // R-groups. The triangle walks them in descending order: a group's
    // probe is cut at its own id, so its cost grows with the id and the
    // heavy morsels go first.
    Timer join_timer;
    struct Scratch {
      ProbeScratch probe;
      kernels::MarkedSet marks;
    };
    const size_t n = r.num_groups();
    std::vector<Scratch> scratch(exec::NumWorkers(ec, n));
    std::vector<MorselOutput> morsels(exec::NumMorsels(ec, n));
    ParallelFor(ec, n, [&](size_t worker, size_t m, size_t begin, size_t end) {
      Scratch& sc = scratch[worker];
      sc.probe.EnsureSize(s.num_groups());
      sc.marks.Bind(w);
      MorselOutput& out = morsels[m];
      for (size_t i = begin; i < end; ++i) {
        GeneratePrefixCandidates(
            r_pref, s_index, static_cast<GroupId>(triangle ? n - 1 - i : i),
            triangle, sc.probe, &out.stats,
            [&](GroupId rg, const std::vector<GroupId>& ss) {
              out.stats.candidate_pairs += ss.size();
              VerifyCandidates(r, rg, s, ss, pred, &sc.marks, &out.pairs,
                               /*mirror=*/triangle);
            });
      }
      sc.marks.Flush();
      sc.probe.tally.Flush();
    });
    std::vector<SSJoinPair> out;
    MergeMorselOutputs(morsels, &out, stats);
    // Mirrored pairs land out of order; sorted, the output is the same at
    // every thread count.
    if (triangle) SortPairs(&out);
    stats->result_pairs = out.size();
    stats->phases.Add("SSJoin", join_timer.ElapsedMillis());
    return out;
  }
};

}  // namespace

void SSJoinStats::Merge(const SSJoinStats& other) {
  equijoin_rows += other.equijoin_rows;
  candidate_pairs += other.candidate_pairs;
  result_pairs += other.result_pairs;
  r_prefix_elements += other.r_prefix_elements;
  s_prefix_elements += other.s_prefix_elements;
  pruned_groups_r += other.pruned_groups_r;
  pruned_groups_s += other.pruned_groups_s;
  phases.Merge(other.phases);
}

const char* SSJoinAlgorithmName(SSJoinAlgorithm algorithm) {
  switch (algorithm) {
    case SSJoinAlgorithm::kNaive:
      return "naive";
    case SSJoinAlgorithm::kBasic:
      return "basic";
    case SSJoinAlgorithm::kInvertedIndex:
      return "inverted-index";
    case SSJoinAlgorithm::kPrefixFilter:
      return "prefix-filter";
    case SSJoinAlgorithm::kPrefixFilterInline:
      return "prefix-filter-inline";
    case SSJoinAlgorithm::kApprox:
      return "approx";
    case SSJoinAlgorithm::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

std::unique_ptr<SSJoinExecutor> MakeExecutor(SSJoinAlgorithm algorithm) {
  switch (algorithm) {
    case SSJoinAlgorithm::kNaive:
      return std::make_unique<NaiveSSJoin>();
    case SSJoinAlgorithm::kBasic:
      return std::make_unique<BasicSSJoin>();
    case SSJoinAlgorithm::kInvertedIndex:
      return std::make_unique<InvertedIndexSSJoin>();
    case SSJoinAlgorithm::kPrefixFilter:
      return std::make_unique<PrefixFilterSSJoin>();
    case SSJoinAlgorithm::kPrefixFilterInline:
      return std::make_unique<InlinePrefixFilterSSJoin>();
    case SSJoinAlgorithm::kApprox:
    case SSJoinAlgorithm::kHybrid:
      // Implemented in src/approx, a layer above core. approx::ExecuteSSJoin
      // intercepts these before dispatch ever reaches this factory.
      return nullptr;
  }
  return nullptr;
}

Result<std::vector<SSJoinPair>> ExecuteSSJoin(SSJoinAlgorithm algorithm,
                                              const SetsRelation& r,
                                              const SetsRelation& s,
                                              const OverlapPredicate& pred,
                                              const SSJoinContext& ctx,
                                              SSJoinStats* stats) {
  std::unique_ptr<SSJoinExecutor> executor = MakeExecutor(algorithm);
  if (executor == nullptr) {
    return Status::Invalid(std::string("SSJoin algorithm '") +
                           SSJoinAlgorithmName(algorithm) +
                           "' is not available through the core dispatcher "
                           "(use approx::ExecuteSSJoin)");
  }
  SSJoinStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  Result<std::vector<SSJoinPair>> result = executor->Execute(r, s, pred, ctx, stats);
  if (result.ok()) PublishSSJoinStats(*stats);
  return result;
}

namespace {

/// "Prefix-filter" -> "prefix_filter": phase names become metric-name
/// segments ([a-z0-9_]).
std::string PhaseMetricSegment(const std::string& phase) {
  std::string out;
  out.reserve(phase.size());
  for (char c : phase) {
    if (c == '-' || c == ' ') {
      out.push_back('_');
    } else if (c >= 'A' && c <= 'Z') {
      out.push_back(static_cast<char>(c - 'A' + 'a'));
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void RegisterCoreMetrics() {
  obs::Registry& reg = obs::Registry::Global();
  for (const char* name :
       {"core.joins", "core.equijoin_rows", "core.candidate_pairs",
        "core.result_pairs", "core.prefix_elements_r", "core.prefix_elements_s",
        "core.pruned_groups_r", "core.pruned_groups_s",
        "core.phase.prefix_filter.us", "core.phase.prefix_filter.count",
        "core.phase.ssjoin.us", "core.phase.ssjoin.count"}) {
    reg.GetCounter(name);
  }
}

void PublishSSJoinStats(const SSJoinStats& stats) {
  obs::Registry& reg = obs::Registry::Global();
  reg.GetCounter("core.joins")->Add(1);
  reg.GetCounter("core.equijoin_rows")->Add(stats.equijoin_rows);
  reg.GetCounter("core.candidate_pairs")->Add(stats.candidate_pairs);
  reg.GetCounter("core.result_pairs")->Add(stats.result_pairs);
  reg.GetCounter("core.prefix_elements_r")->Add(stats.r_prefix_elements);
  reg.GetCounter("core.prefix_elements_s")->Add(stats.s_prefix_elements);
  reg.GetCounter("core.pruned_groups_r")->Add(stats.pruned_groups_r);
  reg.GetCounter("core.pruned_groups_s")->Add(stats.pruned_groups_s);
  for (const auto& [phase, millis] : stats.phases.phases()) {
    std::string prefix = "core.phase." + PhaseMetricSegment(phase);
    reg.GetCounter(prefix + ".us")->Add(static_cast<uint64_t>(millis * 1000.0));
    reg.GetCounter(prefix + ".count")->Add(1);
  }
}

void SortPairs(std::vector<SSJoinPair>* pairs) {
  std::sort(pairs->begin(), pairs->end(), [](const SSJoinPair& a, const SSJoinPair& b) {
    if (a.r != b.r) return a.r < b.r;
    return a.s < b.s;
  });
}

}  // namespace ssjoin::core
