#ifndef SSJOIN_CORE_SSJOIN_H_
#define SSJOIN_CORE_SSJOIN_H_

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "common/result.h"
#include "common/timer.h"
#include "core/order.h"
#include "core/predicate.h"
#include "core/prefix_filter.h"
#include "core/sets.h"
#include "exec/exec_context.h"
#include "kernels/kernels.h"

namespace ssjoin::core {

/// \brief One output pair of the SSJoin operator: group ids of the joined
/// distinct A-values plus their (weighted) overlap.
struct SSJoinPair {
  GroupId r;
  GroupId s;
  double overlap;

  bool operator==(const SSJoinPair& other) const {
    return r == other.r && s == other.s;
  }
};

/// \brief Execution statistics, mirroring the quantities §5 reports:
/// equi-join blowup, candidate counts, per-phase timings.
struct SSJoinStats {
  /// Rows produced by the equi-join on B (Basic) or by the prefix equi-join
  /// (prefix variants, before per-R dedup).
  size_t equijoin_rows = 0;
  /// Distinct <R.A, S.A> pairs whose overlap was computed/verified. The
  /// inline prefix filter's triangle path (a symmetric self-join) counts
  /// each unordered pair once here and in `equijoin_rows`.
  size_t candidate_pairs = 0;
  /// Pairs in the final result.
  size_t result_pairs = 0;
  /// Elements surviving the prefix filter on each side.
  size_t r_prefix_elements = 0;
  size_t s_prefix_elements = 0;
  /// Groups pruned outright (required overlap exceeds total set weight).
  size_t pruned_groups_r = 0;
  size_t pruned_groups_s = 0;
  /// Phase timings ("Prefix-filter", "SSJoin"; callers add "Prep"/"Filter").
  PhaseTimer phases;

  /// Accumulates another stats record into this one: counters are summed and
  /// phase timings merged. The executors combine per-morsel statistics with
  /// it; summing in a fixed (morsel) order keeps the merged record
  /// deterministic.
  void Merge(const SSJoinStats& other);
};

/// \brief Shared inputs of every executor: the element weights (fixed, per
/// Section 2) and the global element ordering used by prefix filters.
struct SSJoinContext {
  const WeightVector* weights = nullptr;
  const ElementOrder* order = nullptr;  // required by prefix variants only
  /// Thread and morsel counts for the executors' ParallelFor loops
  /// (src/exec). Null means the ExecContext defaults: one thread, which runs
  /// every morsel inline on the caller. Output and counters do not depend
  /// on the thread count.
  const exec::ExecContext* exec = nullptr;
};

/// \brief Physical implementation strategies for the SSJoin operator.
enum class SSJoinAlgorithm {
  /// Cross-product + overlap UDF; the strawman the paper's introduction
  /// dismisses. Quadratic — for tests and the bench_naive_udf bench only.
  kNaive,
  /// Figure 7: equi-join on B materialized, then group-by (R.A, S.A) with a
  /// HAVING clause on the summed weights.
  kBasic,
  /// Inverted-index score accumulation in the style of Sarawagi & Kirpal
  /// [13] (§6 related work); no prefix filter, no join materialization.
  kInvertedIndex,
  /// Figure 8: prefix-filter both sides, equi-join prefixes for candidates,
  /// re-join candidates with the base relations and group to verify.
  kPrefixFilter,
  /// Figure 9: prefix filter with inlined set representation — candidates
  /// are verified by a direct overlap "UDF" on the carried sets, avoiding
  /// the re-joins with the base relations. Given the same SetsRelation
  /// object as R and S under a symmetric predicate, it probes only pairs
  /// with s <= r, verifies each once for both orientations and returns the
  /// pairs sorted by (r, s) (DESIGN §7).
  kPrefixFilterInline,
  /// MinHash-LSH approximate candidate tier (src/approx, CPSJoin-style):
  /// candidates from banded signatures tuned to a target recall, verified by
  /// the exact overlap path — precision 1.0, recall approximate. Only
  /// runnable through approx::ExecuteSSJoin; core::MakeExecutor returns null.
  kApprox,
  /// Planner mode: route frequent-token-heavy inputs to kApprox and the rest
  /// to kPrefixFilterInline (core::ChooseHybridTier). Resolved by the approx
  /// layer's dispatch, never a physical executor itself.
  kHybrid,
};

const char* SSJoinAlgorithmName(SSJoinAlgorithm algorithm);

/// \brief Abstract physical operator. Implementations are stateless;
/// everything flows through Execute.
///
/// Contract (Definition 1): returns every pair of groups <r, s> with
/// Overlap_B(r, s) >= max_i e_i(norm_r, norm_s) **and** a non-empty
/// intersection (the operator's standing positive-threshold assumption:
/// pairs sharing no element are never produced).
///
/// Each algorithm has one implementation, whose loops run as morsels of
/// exec::ParallelFor under `ctx.exec`: pairs, their order, their overlap
/// doubles and all counters are the same at any thread count.
class SSJoinExecutor {
 public:
  virtual ~SSJoinExecutor() = default;

  virtual std::string name() const = 0;

  virtual Result<std::vector<SSJoinPair>> Execute(const SetsRelation& r,
                                                  const SetsRelation& s,
                                                  const OverlapPredicate& pred,
                                                  const SSJoinContext& ctx,
                                                  SSJoinStats* stats) const = 0;
};

/// Factory for a named algorithm.
std::unique_ptr<SSJoinExecutor> MakeExecutor(SSJoinAlgorithm algorithm);

/// Shared input validation for SSJoin executors: weights/order coverage and
/// column-length consistency.
Status ValidateSSJoinInputs(const SetsRelation& r, const SetsRelation& s,
                            const SSJoinContext& ctx, bool needs_order);

/// \brief The overlap "UDF" of Figure 9 for one R-group: appends to `out`,
/// in candidate order, every candidate S-group of `cands` whose overlap with
/// R-group `rg` is positive and passes `pred`.
///
/// `marks` is the calling worker's scratch, bound to the join's weights. It
/// marks r.set(rg) once and probes each candidate set against the marks,
/// skipping the rest of a candidate once its overlap provably falls below
/// pred.MinPassingOverlap; survivors are accepted by pred.Test on the exact
/// overlap. Overlaps are bit-equal to the scalar sorted merge's. The caller
/// flushes `marks`' work counts once per morsel.
///
/// With `mirror` (a symmetric self-join probed as a triangle: `s` is `r`),
/// each candidate sg != rg also stands for its mirror (sg, rg). The overlap
/// is computed once: it sums the same matches in the same ascending token
/// order both ways, so it is bit-equal for both. The early exit prunes only
/// below the smaller of the two orientations' MinPassingOverlap, and each
/// orientation is emitted when it passes its own pred.Test.
void VerifyCandidates(const SetsRelation& r, GroupId rg, const SetsRelation& s,
                      std::span<const GroupId> cands,
                      const OverlapPredicate& pred, kernels::MarkedSet* marks,
                      std::vector<SSJoinPair>* out, bool mirror = false);

/// One-shot convenience: builds the executor and runs it.
Result<std::vector<SSJoinPair>> ExecuteSSJoin(SSJoinAlgorithm algorithm,
                                              const SetsRelation& r,
                                              const SetsRelation& s,
                                              const OverlapPredicate& pred,
                                              const SSJoinContext& ctx,
                                              SSJoinStats* stats = nullptr);

/// Sorts pairs by (r, s) — canonical order for comparing implementations.
void SortPairs(std::vector<SSJoinPair>* pairs);

/// Pre-creates the core layer's obs::Registry entries (core.joins,
/// core.equijoin_rows, ...) so metric exports list the full name set even
/// before the first join runs.
void RegisterCoreMetrics();

/// Adds one finished join's statistics to the global obs registry: counters
/// under `core.*` and phase timings under `core.phase.<phase>.{us,count}`.
/// Called by core::ExecuteSSJoin and approx::ExecuteSSJoin; the counter
/// deltas are deterministic (SSJoinStats merges per-morsel records in morsel
/// order), phase timings are wall clock and are not.
void PublishSSJoinStats(const SSJoinStats& stats);

}  // namespace ssjoin::core

#endif  // SSJOIN_CORE_SSJOIN_H_
