#include "approx/minhash.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "core/inverted_index.h"
#include "exec/parallel_for.h"

namespace ssjoin::approx {

namespace {

constexpr size_t kMaxRows = 8;

/// Detects a two-sided normalized predicate (Overlap >= a_r * R.norm AND
/// Overlap >= a_s * S.norm) and returns min(a_r, a_s) clamped to [0, 1];
/// 0 when the predicate has no such pair of conjuncts.
double TwoSidedAlpha(const core::OverlapPredicate& pred) {
  double a_r = 0.0;
  double a_s = 0.0;
  for (const core::ThresholdExpr& e : pred.exprs()) {
    if (e.constant < 0.0) continue;
    if (e.r_norm_coeff > 0.0 && e.s_norm_coeff <= 0.0) {
      a_r = std::max(a_r, e.r_norm_coeff);
    }
    if (e.s_norm_coeff > 0.0 && e.r_norm_coeff <= 0.0) {
      a_s = std::max(a_s, e.s_norm_coeff);
    }
  }
  if (a_r <= 0.0 || a_s <= 0.0) return 0.0;
  return std::min(1.0, std::min(a_r, a_s));
}

bool NormsEqualSetWeights(const core::SetsRelation& rel) {
  for (size_t g = 0; g < rel.num_groups(); ++g) {
    if (rel.norms[g] != rel.set_weights[g]) return false;
  }
  return true;
}

size_t MaxSetSize(const core::SetsRelation& rel) {
  size_t max_len = 0;
  for (core::GroupId g = 0; g < rel.num_groups(); ++g) {
    max_len = std::max(max_len, rel.set(g).size());
  }
  return max_len;
}

}  // namespace

BandPlan TuneBands(const core::SetsRelation& r, const core::SetsRelation& s,
                   const core::OverlapPredicate& pred,
                   const core::WeightVector& weights, const ApproxParams& params) {
  BandPlan plan;
  double pairs = static_cast<double>(r.num_groups()) *
                 static_cast<double>(s.num_groups());
  if (params.exact_floor_pairs > 0 &&
      pairs <= static_cast<double>(params.exact_floor_pairs)) {
    plan.note = "below exact floor";
    return plan;
  }

  size_t max_len_r = MaxSetSize(r);
  size_t max_len_s = MaxSetSize(s);
  if (max_len_r == 0 || max_len_s == 0) {
    plan.note = "a side is all-empty";
    return plan;
  }

  // Provable floor 1: every result pair shares >= 1 element, so its
  // resemblance is at least 1 / (|r| + |s| - 1) over the largest sets.
  double t_min = 1.0 / static_cast<double>(max_len_r + max_len_s - 1);

  // Floor 2 (predicate-derived, often far tighter): for two-sided normalized
  // predicates with norms equal to set weights, Overlap >= a * max(norms)
  // implies resemblance >= (wmin/wmax) * a / (2 - a). See DESIGN.md §13.
  double alpha = TwoSidedAlpha(pred);
  if (alpha > 0.0 && NormsEqualSetWeights(r) && NormsEqualSetWeights(s)) {
    // Weight spread over elements that actually occur (unused dictionary
    // entries must not widen it).
    double wmin = std::numeric_limits<double>::infinity();
    double wmax = 0.0;
    for (const core::SetStore* store : {&r.store, &s.store}) {
      for (text::TokenId e : store->token_ids()) {
        double w = weights[e];
        wmin = std::min(wmin, w);
        wmax = std::max(wmax, w);
      }
    }
    if (wmax > 0.0 && wmin > 0.0 && std::isfinite(wmin)) {
      double spread = std::min(1.0, wmin / wmax);
      t_min = std::max(t_min, spread * alpha / (2.0 - alpha));
    }
  }
  plan.t_min = std::min(t_min, 0.95);

  // Background resemblance of a random pair from the estimator's frequency
  // statistics: E[|r ∩ s|] = sum_e fR(e) * fS(e) / (|R| * |S|).
  size_t num_elements = core::MaxElementId(r, s) + 1;
  std::vector<uint32_t> fr(num_elements, 0);
  std::vector<uint32_t> fs(num_elements, 0);
  for (text::TokenId e : r.store.token_ids()) ++fr[e];
  for (text::TokenId e : s.store.token_ids()) ++fs[e];
  double expected_overlap = 0.0;
  for (size_t e = 0; e < num_elements; ++e) {
    expected_overlap += static_cast<double>(fr[e]) * fs[e];
  }
  expected_overlap /= std::max(1.0, pairs);
  double total_elements =
      static_cast<double>(r.total_elements() + s.total_elements());
  double avg_r = static_cast<double>(r.total_elements()) /
                 std::max<size_t>(1, r.num_groups());
  double avg_s = static_cast<double>(s.total_elements()) /
                 std::max<size_t>(1, s.num_groups());
  double avg_union = std::max(1.0, avg_r + avg_s - expected_overlap);
  plan.t_background = std::min(plan.t_min, expected_overlap / avg_union);

  // Per-pair miss budget: drive P(miss) far below the allowed missed
  // fraction so the measured recall concentrates above the target.
  double target = std::clamp(params.target_recall, 0.05, 0.999999);
  double eps_pair = (1.0 - target) / kMissSafety;

  size_t cap = params.max_hashes > 0 ? params.max_hashes : kDefaultMaxHashes;
  double avg_set = total_elements /
                   std::max<size_t>(1, r.num_groups() + s.num_groups());
  double best_cost = std::numeric_limits<double>::infinity();
  for (size_t rows = 1; rows <= kMaxRows; ++rows) {
    double p = std::pow(plan.t_min, static_cast<double>(rows));
    if (p <= 0.0) break;
    p = std::min(p, 1.0 - 1e-12);
    // 1 - (1 - p)^bands >= 1 - eps_pair  <=>  bands >= ln(eps)/ln(1-p).
    double bands_needed = std::ceil(std::log(eps_pair) / std::log1p(-p));
    if (!(bands_needed >= 1.0)) bands_needed = 1.0;
    // Compare in floating point: the needed band count can exceed
    // size_t range by orders of magnitude, and casting that is UB.
    if (bands_needed * static_cast<double>(rows) > static_cast<double>(cap)) {
      continue;
    }
    auto bands = static_cast<size_t>(bands_needed);
    double p_bg = std::pow(plan.t_background, static_cast<double>(rows));
    double collide_bg =
        1.0 - std::pow(1.0 - p_bg, static_cast<double>(bands));
    // Signature hashing work + expected background-candidate verify work.
    double cost = static_cast<double>(bands * rows) * total_elements +
                  collide_bg * pairs * avg_set;
    if (cost < best_cost) {
      best_cost = cost;
      plan.use_lsh = true;
      plan.rows = rows;
      plan.bands = bands;
    }
  }
  plan.note = plan.use_lsh ? "lsh" : "band budget exhausted for target recall";
  return plan;
}

SignatureMatrix BuildSignatures(const core::SetStore& store, size_t num_hashes,
                                uint64_t seed, const exec::ExecContext* ec) {
  SignatureMatrix sig;
  sig.num_hashes = num_hashes;
  sig.values.assign(static_cast<size_t>(store.num_groups()) * num_hashes,
                    std::numeric_limits<uint64_t>::max());
  if (num_hashes == 0 || store.num_groups() == 0) return sig;

  std::vector<uint64_t> salts(num_hashes);
  for (size_t i = 0; i < num_hashes; ++i) salts[i] = HashCombine(seed, i);

  const exec::ExecContext& ctx = exec::OrDefault(ec);
  // Each group's row is a pure function of (seed, elements): any partition
  // into morsels yields bit-identical signatures.
  exec::ParallelFor(ctx, store.num_groups(),
                    [&](size_t, size_t, size_t begin, size_t end) {
                      for (size_t g = begin; g < end; ++g) {
                        uint64_t* row = sig.values.data() + g * num_hashes;
                        for (text::TokenId e : store.elements(
                                 static_cast<core::GroupId>(g))) {
                          for (size_t i = 0; i < num_hashes; ++i) {
                            uint64_t h = HashCombine(salts[i], e);
                            if (h < row[i]) row[i] = h;
                          }
                        }
                      }
                    });
  return sig;
}

}  // namespace ssjoin::approx
