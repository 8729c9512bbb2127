#include "core/relational_ssjoin.h"

#include "engine/expr.h"

#include <algorithm>
#include <numeric>

namespace ssjoin::core {

using engine::AggKind;
using engine::AggSpec;
using engine::DataType;
using engine::Table;

Result<Table> ToNormalizedTable(const SetsRelation& rel, const WeightVector& weights,
                                const ElementOrder& order) {
  Table out{engine::Schema({{"a", DataType::kInt64},
                            {"b", DataType::kInt64},
                            {"weight", DataType::kFloat64},
                            {"norm", DataType::kFloat64},
                            {"rank", DataType::kInt64}})};
  out.Reserve(rel.total_elements());
  for (GroupId g = 0; g < rel.num_groups(); ++g) {
    for (text::TokenId e : rel.set(g)) {
      if (e >= weights.size() || e >= order.num_elements()) {
        return Status::Invalid("element id not covered by weights/order");
      }
      SSJOIN_RETURN_NOT_OK(out.AppendRow({engine::Value(static_cast<int64_t>(g)),
                                          engine::Value(static_cast<int64_t>(e)),
                                          engine::Value(weights[e]),
                                          engine::Value(rel.norms[g]),
                                          engine::Value(static_cast<int64_t>(
                                              order.Rank(e)))}));
    }
  }
  return out;
}

namespace {

/// The HAVING clause of Definition 1 as a declarative engine expression:
/// AND_i (overlap >= c_i + rc_i * r_norm + sc_i * s_norm), with
/// OverlapPredicate::kEps absorbing floating-point summation-order
/// differences (matching OverlapPredicate::Test).
engine::ExprPtr HavingExpr(const OverlapPredicate& pred) {
  engine::ExprPtr conj;
  for (const ThresholdExpr& e : pred.exprs()) {
    engine::ExprPtr rhs = engine::Lit(e.constant - OverlapPredicate::kEps);
    if (e.r_norm_coeff != 0.0) {
      rhs = engine::Add(rhs, engine::Mul(engine::Lit(e.r_norm_coeff),
                                         engine::Col("r_norm")));
    }
    if (e.s_norm_coeff != 0.0) {
      rhs = engine::Add(rhs, engine::Mul(engine::Lit(e.s_norm_coeff),
                                         engine::Col("s_norm")));
    }
    engine::ExprPtr conjunct = engine::Ge(engine::Col("overlap"), rhs);
    conj = conj ? engine::And(std::move(conj), std::move(conjunct))
                : std::move(conjunct);
  }
  // An empty predicate accepts every co-occurring pair.
  return conj ? conj : engine::Ge(engine::Col("overlap"), engine::Lit(0.0));
}

/// Group-by (r.a, s.a) over a joined table carrying both sides' norms, with
/// the SSJoin HAVING clause. `a_col`/`a_r_col` etc. name the columns.
Result<Table> GroupAndHaving(const Table& joined, const std::string& r_a,
                             const std::string& s_a, const std::string& weight,
                             const std::string& r_norm, const std::string& s_norm,
                             const OverlapPredicate& pred) {
  std::vector<AggSpec> aggs = {{AggKind::kSum, weight, "overlap"},
                               {AggKind::kMin, r_norm, "r_norm"},
                               {AggKind::kMin, s_norm, "s_norm"}};
  SSJOIN_ASSIGN_OR_RETURN(Table grouped,
                          engine::HashGroupBy(joined, {r_a, s_a}, aggs));
  SSJOIN_ASSIGN_OR_RETURN(Table filtered,
                          engine::FilterWhere(grouped, HavingExpr(pred)));
  SSJOIN_ASSIGN_OR_RETURN(Table projected,
                          engine::Project(filtered, {r_a, s_a, "overlap"}));
  return engine::Rename(projected, {{r_a, "r_a"}, {s_a, "s_a"}});
}

}  // namespace

Result<Table> BasicSSJoinPlan(const Table& r, const Table& s,
                              const OverlapPredicate& pred) {
  // Equi-join R.b = S.b. Right-side duplicate names acquire the "_r" suffix.
  SSJOIN_ASSIGN_OR_RETURN(Table joined, engine::HashEquiJoin(r, s, {"b"}, {"b"}));
  return GroupAndHaving(joined, "a", "a_r", "weight", "norm", "norm_r", pred);
}

Result<Table> PrefixFilterPlan(const Table& input, const OverlapPredicate& pred,
                               bool r_side) {
  // Groupwise processing (§4.3.3): per group, scan in rank order and keep
  // the shortest prefix whose weights sum to more than
  // wt(group) - required(norm).
  engine::GroupFunction fn = [&pred, r_side](const Table& group) -> Result<Table> {
    SSJOIN_ASSIGN_OR_RETURN(size_t weight_col, group.schema().FieldIndex("weight"));
    SSJOIN_ASSIGN_OR_RETURN(size_t norm_col, group.schema().FieldIndex("norm"));
    SSJOIN_ASSIGN_OR_RETURN(Table ordered, engine::OrderBy(group, {"rank"}));
    double total = 0.0;
    for (size_t i = 0; i < ordered.num_rows(); ++i) {
      total += ordered.GetValue(weight_col, i).AsDouble();
    }
    double norm = ordered.num_rows() > 0 ? ordered.GetValue(norm_col, 0).AsDouble()
                                         : 0.0;
    double required =
        r_side ? pred.RSideRequired(norm) : pred.SSideRequired(norm);
    double beta = total - required;
    constexpr double kPruneEps = 1e-6;
    std::vector<size_t> keep;
    if (beta >= -kPruneEps) {
      double cum = 0.0;
      for (size_t i = 0; i < ordered.num_rows(); ++i) {
        keep.push_back(i);
        cum += ordered.GetValue(weight_col, i).AsDouble();
        if (cum > beta + kPruneEps) break;
      }
    }
    return ordered.Take(keep);
  };
  return engine::GroupwiseApply(input, {"a"}, fn);
}

Result<Table> PrefixFilterSSJoinPlan(const Table& r, const Table& s,
                                     const OverlapPredicate& pred) {
  SSJOIN_ASSIGN_OR_RETURN(Table r_pref, PrefixFilterPlan(r, pred, /*r_side=*/true));
  SSJOIN_ASSIGN_OR_RETURN(Table s_pref, PrefixFilterPlan(s, pred, /*r_side=*/false));

  // Candidate pairs: equi-join of the prefixes on b, projected to the pair
  // of group ids, deduplicated.
  SSJOIN_ASSIGN_OR_RETURN(Table pref_join,
                          engine::HashEquiJoin(r_pref, s_pref, {"b"}, {"b"}));
  SSJOIN_ASSIGN_OR_RETURN(Table cand_proj, engine::Project(pref_join, {"a", "a_r"}));
  SSJOIN_ASSIGN_OR_RETURN(Table cand_renamed,
                          engine::Rename(cand_proj, {{"a", "ca"}, {"a_r", "cs"}}));
  SSJOIN_ASSIGN_OR_RETURN(Table candidates, engine::Distinct(cand_renamed));

  // Re-join the candidates with both base relations (T.R.A = R.A and
  // T.S.A = S.A with R.B = S.B), then group and verify — Figure 8's top.
  SSJOIN_ASSIGN_OR_RETURN(Table with_r,
                          engine::HashEquiJoin(candidates, r, {"ca"}, {"a"}));
  SSJOIN_ASSIGN_OR_RETURN(Table with_both,
                          engine::HashEquiJoin(with_r, s, {"cs", "b"}, {"a", "b"}));
  // with_both columns: ca, cs, a, b, weight, norm, rank,
  //                    a_r, b_r, weight_r, norm_r, rank_r
  return GroupAndHaving(with_both, "ca", "cs", "weight", "norm", "norm_r", pred);
}

}  // namespace ssjoin::core
