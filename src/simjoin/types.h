#ifndef SSJOIN_SIMJOIN_TYPES_H_
#define SSJOIN_SIMJOIN_TYPES_H_

#include <cstdint>
#include <vector>

#include "approx/params.h"
#include "common/timer.h"
#include "core/ssjoin.h"
#include "exec/exec_context.h"

namespace ssjoin::simjoin {

/// \brief One output pair of a similarity join: indices into the two input
/// collections plus the exact similarity (or negated distance for
/// distance-based joins, so that larger is always more similar).
struct MatchPair {
  uint32_t r;
  uint32_t s;
  double similarity;

  bool operator==(const MatchPair& other) const {
    return r == other.r && s == other.s;
  }
};

/// \brief End-to-end statistics for a similarity join built on SSJoin
/// (Figure 2's pipeline), including the quantities the paper reports:
/// phase breakdown (Prep / Prefix-filter / SSJoin / Filter, Figures 10-13)
/// and the number of exact-similarity verifier invocations (Table 1).
struct SimJoinStats {
  core::SSJoinStats ssjoin;
  /// Number of exact similarity-function (UDF) evaluations in the final
  /// filter step. This is the "#edit comparisons" column of Table 1.
  size_t verifier_calls = 0;
  size_t result_pairs = 0;
  /// Pipeline phases: "Prep" (string→set conversion), "Prefix-filter",
  /// "SSJoin", "Filter" (the UDF post-check).
  PhaseTimer phases;
};

/// \brief Common execution knobs shared by all similarity joins.
struct JoinExecution {
  /// Physical SSJoin implementation to use.
  core::SSJoinAlgorithm algorithm = core::SSJoinAlgorithm::kPrefixFilterInline;
  /// If true, ignore `algorithm` and let the cost model pick (§7).
  bool use_cost_model = false;
  /// Parallel-runtime knobs (src/exec): thread count and morsel size for the
  /// SSJoin stage and the UDF verification loop. Defaults to one thread.
  exec::ExecContext exec;
  /// Knobs of the approximate tier (src/approx), consulted when `algorithm`
  /// is kApprox or kHybrid; ignored by the exact algorithms.
  approx::ApproxParams approx;
};

/// True when a computed similarity reaches the threshold `alpha`; the
/// tolerance absorbs the floating-point error of computing both.
inline bool MeetsThreshold(double similarity, double alpha) {
  return similarity >= alpha - 1e-12;
}

/// Sorts match pairs by (r, s).
void SortMatches(std::vector<MatchPair>* matches);

}  // namespace ssjoin::simjoin

#endif  // SSJOIN_SIMJOIN_TYPES_H_
