#ifndef SSJOIN_CORE_PREDICATE_H_
#define SSJOIN_CORE_PREDICATE_H_

#include <string>
#include <vector>

namespace ssjoin::core {

/// \brief One conjunct of an SSJoin predicate (Definition 1): a required
/// overlap of the form
///
///   Overlap_B(a_r, a_s) >= constant + r_norm_coeff * norm(a_r)
///                                   + s_norm_coeff * norm(a_s)
///
/// This linear family covers every instantiation in the paper: absolute
/// overlap (`constant` only), 1-sided normalized (`alpha * R.norm`), 2-sided
/// normalized, and — because a conjunction of thresholds is their maximum —
/// `alpha * max(R.norm, S.norm)` as two conjuncts.
struct ThresholdExpr {
  double constant = 0.0;
  double r_norm_coeff = 0.0;
  double s_norm_coeff = 0.0;

  double Eval(double r_norm, double s_norm) const {
    return constant + r_norm_coeff * r_norm + s_norm_coeff * s_norm;
  }
};

/// \brief Conjunction of overlap thresholds: `AND_i { Overlap >= e_i }`.
///
/// SSJoin additionally requires the pair of groups to share at least one
/// element (the paper's standing assumption that thresholds are positive;
/// pairs with empty intersection are never produced).
class OverlapPredicate {
 public:
  OverlapPredicate() = default;

  /// `Overlap >= alpha` (Example 2, absolute overlap).
  static OverlapPredicate Absolute(double alpha) {
    OverlapPredicate p;
    p.And({alpha, 0.0, 0.0});
    return p;
  }
  /// `Overlap >= alpha * R.norm` (1-sided normalized overlap; also the
  /// Jaccard-containment reduction of Example 3).
  static OverlapPredicate OneSidedNormalized(double alpha) {
    OverlapPredicate p;
    p.And({0.0, alpha, 0.0});
    return p;
  }
  /// `Overlap >= alpha * R.norm AND Overlap >= alpha * S.norm`, i.e.
  /// `Overlap >= alpha * max(R.norm, S.norm)` (2-sided normalized overlap).
  static OverlapPredicate TwoSidedNormalized(double alpha) {
    OverlapPredicate p;
    p.And({0.0, alpha, 0.0});
    p.And({0.0, 0.0, alpha});
    return p;
  }

  /// Adds a conjunct; returns *this for chaining.
  OverlapPredicate& And(ThresholdExpr expr) {
    exprs_.push_back(expr);
    return *this;
  }

  /// The exact required overlap for a concrete pair: max_i e_i(r, s).
  /// At least 0 (overlaps are never negative).
  double RequiredOverlap(double r_norm, double s_norm) const {
    double req = 0.0;
    for (const ThresholdExpr& e : exprs_) {
      double v = e.Eval(r_norm, s_norm);
      if (v > req) req = v;
    }
    return req;
  }

  /// Tolerance for floating-point weight accumulation order differences:
  /// every acceptance test of the batch joins (this class and the relational
  /// plan's HAVING clause) subtracts it from the required overlap.
  static constexpr double kEps = 1e-9;

  /// The smallest overlap `Test` accepts for a concrete pair:
  /// RequiredOverlap minus the kEps band that forgives weight sums
  /// accumulated in a different order. The batch verify's early-exit bound
  /// prunes only below this value, so pruning and acceptance share one
  /// threshold.
  double MinPassingOverlap(double r_norm, double s_norm) const {
    return RequiredOverlap(r_norm, s_norm) - kEps;
  }

  /// True iff `overlap` satisfies every conjunct (within the kEps band).
  bool Test(double overlap, double r_norm, double s_norm) const {
    return overlap >= MinPassingOverlap(r_norm, s_norm);
  }

  /// A lower bound on RequiredOverlap(r_norm, *) valid for every possible
  /// S-group: conjuncts' S terms are dropped when their coefficient is
  /// positive (norms are nonnegative) and the conjunct is skipped when
  /// negative. This is the `alpha` fed to the R-side prefix filter
  /// (beta_r = wt(set_r) - RSideRequired(norm_r), Lemma 1 / §4.2).
  double RSideRequired(double r_norm) const {
    return OneSideRequired(r_norm, /*r_side=*/true);
  }
  /// Symmetric bound for the S side.
  double SSideRequired(double s_norm) const {
    return OneSideRequired(s_norm, /*r_side=*/false);
  }

  /// True when swapping the R and S coefficients of every conjunct yields
  /// the same conjunct set (absolute, 2-sided normalized and the edit
  /// predicates): a pair then passes with its sides swapped iff it passes
  /// as given, up to the kEps band (RequiredOverlap(a, b) and
  /// RequiredOverlap(b, a) may differ in the last bits, because the terms
  /// are added in another order). Self-joins under such a predicate are
  /// symmetric, which the inline prefix-filter executor exploits.
  bool IsSymmetric() const;

  const std::vector<ThresholdExpr>& exprs() const { return exprs_; }

  std::string ToString() const;

 private:
  double OneSideRequired(double own_norm, bool r_side) const {
    double req = 0.0;
    for (const ThresholdExpr& e : exprs_) {
      double other_coeff = r_side ? e.s_norm_coeff : e.r_norm_coeff;
      if (other_coeff < 0.0) continue;  // cannot bound without the other norm
      double own_coeff = r_side ? e.r_norm_coeff : e.s_norm_coeff;
      double v = e.constant + own_coeff * own_norm;  // other norm >= 0 dropped
      if (v > req) req = v;
    }
    return req;
  }

  std::vector<ThresholdExpr> exprs_;
};

}  // namespace ssjoin::core

#endif  // SSJOIN_CORE_PREDICATE_H_
