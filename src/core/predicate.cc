#include "core/predicate.h"

#include "common/string_util.h"

namespace ssjoin::core {

bool OverlapPredicate::IsSymmetric() const {
  for (const ThresholdExpr& e : exprs_) {
    bool mirrored = false;
    for (const ThresholdExpr& m : exprs_) {
      mirrored = mirrored || (m.constant == e.constant &&
                              m.r_norm_coeff == e.s_norm_coeff &&
                              m.s_norm_coeff == e.r_norm_coeff);
    }
    if (!mirrored) return false;
  }
  return true;
}

std::string OverlapPredicate::ToString() const {
  if (exprs_.empty()) return "Overlap >= 0";
  std::string out;
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += " AND ";
    const ThresholdExpr& e = exprs_[i];
    std::string rhs;
    if (e.constant != 0.0 || (e.r_norm_coeff == 0.0 && e.s_norm_coeff == 0.0)) {
      rhs += StringPrintf("%g", e.constant);
    }
    if (e.r_norm_coeff != 0.0) {
      if (!rhs.empty()) rhs += " + ";
      rhs += StringPrintf("%g*R.norm", e.r_norm_coeff);
    }
    if (e.s_norm_coeff != 0.0) {
      if (!rhs.empty()) rhs += " + ";
      rhs += StringPrintf("%g*S.norm", e.s_norm_coeff);
    }
    out += "Overlap >= " + rhs;
  }
  return out;
}

}  // namespace ssjoin::core
