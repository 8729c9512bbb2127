#ifndef SSJOIN_APPROX_APPROX_SSJOIN_H_
#define SSJOIN_APPROX_APPROX_SSJOIN_H_

#include <vector>

#include "approx/minhash.h"
#include "approx/params.h"
#include "common/result.h"
#include "core/ssjoin.h"

namespace ssjoin::approx {

/// \brief The sixth physical SSJoin implementation: MinHash-LSH candidate
/// generation tuned to a target recall, exact verification (CPSJoin-style;
/// see DESIGN.md §13).
///
/// Guarantees:
///  - Precision 1.0: every emitted pair passes the same sorted-merge overlap
///    and predicate test the exact executors use, with bit-identical
///    overlap values — the output is always a subset of the exact result.
///  - Determinism: candidates derive from seeded signatures only; with a
///    fixed seed the output is bit-identical at any thread count (morsel
///    outputs are concatenated in morsel order).
///  - Robustness: inputs below `exact_floor_pairs`, or whose tuned band
///    budget cannot meet the target recall, run the exact inverted-index
///    candidate generator instead (recall 1.0).
class ApproxSSJoin final : public core::SSJoinExecutor {
 public:
  explicit ApproxSSJoin(ApproxParams params) : params_(params) {}

  std::string name() const override { return "approx"; }

  Result<std::vector<core::SSJoinPair>> Execute(
      const core::SetsRelation& r, const core::SetsRelation& s,
      const core::OverlapPredicate& pred, const core::SSJoinContext& ctx,
      core::SSJoinStats* stats) const override;

 private:
  ApproxParams params_;
};

/// \brief Drop-in replacement for core::ExecuteSSJoin that additionally
/// handles kApprox and kHybrid:
///  - kHybrid resolves to kApprox or kPrefixFilterInline via
///    core::ChooseHybridTier (counted in approx.hybrid_to_* metrics);
///  - kApprox runs ApproxSSJoin with `params` (serial or parallel per
///    ctx.exec) and publishes core + approx metrics;
///  - the five exact algorithms delegate to core::ExecuteSSJoin unchanged.
/// `resolved` (optional) receives the physical algorithm that actually ran.
Result<std::vector<core::SSJoinPair>> ExecuteSSJoin(
    core::SSJoinAlgorithm algorithm, const core::SetsRelation& r,
    const core::SetsRelation& s, const core::OverlapPredicate& pred,
    const core::SSJoinContext& ctx, const ApproxParams& params,
    core::SSJoinStats* stats = nullptr,
    core::SSJoinAlgorithm* resolved = nullptr);

/// Pre-creates the approx layer's obs::Registry entries (approx.joins,
/// approx.bands_probed, ..., approx.measured_recall_ppm) so metric exports
/// list the full name set before the first approximate join runs.
void RegisterApproxMetrics();

}  // namespace ssjoin::approx

#endif  // SSJOIN_APPROX_APPROX_SSJOIN_H_
