#ifndef SSJOIN_TEXT_WEIGHTS_H_
#define SSJOIN_TEXT_WEIGHTS_H_

#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <span>
#include <vector>

#include "text/dictionary.h"

namespace ssjoin::text {

/// Floor applied to IDF weights so every weight stays positive (the paper
/// assumes positive weights).
inline constexpr double kMinIdfWeight = 1e-6;

/// \brief The IDF formula of §5, shared by the batch joins, the lookup index
/// and its brute-force oracle so all compute bit-identical doubles for the
/// same (n, f).
/// `f == 0` — possible in a dictionary rebuilt through Restore — maps to the
/// floor: log(n/0) = +inf would otherwise poison every set weight it touches.
inline double IdfWeightFromFrequency(double n, uint64_t f) {
  double idf = f == 0 ? kMinIdfWeight : std::log(n / static_cast<double>(f));
  return idf > kMinIdfWeight ? idf : kMinIdfWeight;
}

/// \brief Snaps a weight to the nearest multiple of 2^-26.
///
/// IDF weights are bounded by log(2^64) < 45 < 2^6, so a quantized weight
/// has at most 6 + 26 = 32 significand bits. Sums of up to ~2^20 such
/// weights stay below 2^26 in magnitude and need at most 26 + 26 = 52
/// significand bits — they fit a double EXACTLY, so weighted-set sums incur
/// no rounding and are independent of summation order. This is what lets a
/// mutable index (whose token ids reflect insertion history) produce
/// bitwise-identical similarities to a from-scratch rebuild (whose ids
/// reflect corpus order). A stored set weight patched by `w_new - w_old`
/// when one element's weight moves stays exact under the same bound: the
/// difference is itself on the 2^-26 grid, so the patched sum equals a
/// recomputed one bit for bit.
inline double QuantizeWeight(double w) {
  return std::ldexp(std::nearbyint(std::ldexp(w, 26)), -26);
}

/// \brief Exactly `overlap >= alpha * uni`: the resemblance test
/// `overlap / uni >= alpha` of a fuzzy lookup, with no rounding anywhere.
///
/// `overlap` and `uni` must be sums of QuantizeWeight outputs (non-negative
/// multiples of 2^-26 below 2^38), and `alpha`'s double is taken as the
/// dyadic rational m * 2^-s it is exactly. A double comparison with a 2^-50
/// relative margin (eight times the product's worst rounding error) decides
/// everything away from the boundary; near it, the test runs on integers:
/// O = overlap * 2^26 and U = uni * 2^26, and O >= m * U / 2^s.
inline bool ResemblanceAtLeast(double overlap, double uni, double alpha) {
  const double product = alpha * uni;
  const double margin = product * 0x1p-50;
  if (overlap > product + margin) return true;
  if (overlap < product - margin) return false;
  int exponent = 0;
  const auto m = static_cast<uint64_t>(
      std::ldexp(std::frexp(alpha, &exponent), 53));  // alpha = m * 2^-s
  const int s = 53 - exponent;
  const auto o = static_cast<uint64_t>(std::ldexp(overlap, 26));
  const unsigned __int128 p =
      static_cast<unsigned __int128>(m) * static_cast<uint64_t>(std::ldexp(uni, 26));
  if (s >= 128) return o > 0 || p == 0;  // m * U / 2^s < 1
  const unsigned __int128 q = p >> s;  // m * U / 2^s rounded down
  return o > q || (o == q && (q << s) == p);
}

/// \brief Assigns a fixed positive weight to every element of the universe
/// (Section 2: "each distinct value in U is associated with a unique weight").
class WeightProvider {
 public:
  virtual ~WeightProvider() = default;

  /// Weight of element `id`. Always positive.
  virtual double Weight(TokenId id) const = 0;

  /// Sum of weights of a set's elements (`wt(s)` in the paper). Accepts any
  /// contiguous id sequence (vector, SetView, CSR slice).
  double SetWeight(std::span<const TokenId> set) const {
    double total = 0.0;
    for (TokenId id : set) total += Weight(id);
    return total;
  }
  double SetWeight(std::initializer_list<TokenId> set) const {
    return SetWeight(std::span<const TokenId>(set.begin(), set.size()));
  }
};

/// \brief All weights are 1 (the unweighted case; `wt(s)` = |s|).
class UnitWeights final : public WeightProvider {
 public:
  double Weight(TokenId) const override { return 1.0; }
};

/// \brief IDF weights exactly as in the paper's §5:
/// `w(t) = log((|R| + |S|) / f_t)` where `f_t` is the number of R[A] and
/// S[A] values containing `t`. Weights are materialized at construction, so
/// the dictionary may be discarded or keep growing afterwards without
/// affecting this provider.
class IdfWeights final : public WeightProvider {
 public:
  /// Snapshot IDF weights from a dictionary over the joined corpora.
  /// Elements with f_t = num_documents get a small positive floor weight so
  /// that every weight is positive (the paper assumes positive weights).
  /// Elements with f_t = 0 — possible in a dictionary rebuilt through
  /// TokenDictionary::Restore — get the same floor: log(n/0) = +inf would
  /// otherwise pass the `>` clamp and poison every set weight it touches.
  explicit IdfWeights(const TokenDictionary& dict) {
    const double n = static_cast<double>(dict.num_documents());
    weights_.resize(dict.num_elements());
    for (TokenId id = 0; id < weights_.size(); ++id) {
      weights_[id] = IdfWeightFromFrequency(n, dict.DocFrequency(id));
    }
  }

  double Weight(TokenId id) const override {
    SSJOIN_DCHECK(id < weights_.size());
    return weights_[id];
  }

  size_t size() const { return weights_.size(); }

 private:
  std::vector<double> weights_;
};

}  // namespace ssjoin::text

#endif  // SSJOIN_TEXT_WEIGHTS_H_
