#ifndef SSJOIN_SIM_EDIT_DISTANCE_H_
#define SSJOIN_SIM_EDIT_DISTANCE_H_

#include <cmath>
#include <cstddef>
#include <string_view>

namespace ssjoin::sim {

/// \brief Levenshtein edit distance (Definition 2): minimum number of
/// character insertions, deletions and substitutions transforming `a` into
/// `b`. O(|a|*|b|) time, O(min) space.
size_t EditDistance(std::string_view a, std::string_view b);

/// \brief Banded edit distance with cutoff: returns the exact edit distance
/// if it is <= `k`, otherwise any value > `k` (specifically k+1).
/// O((2k+1) * min(|a|,|b|)) time — this is the verifier used after the
/// SSJoin candidate generation, where k is small.
size_t EditDistanceBounded(std::string_view a, std::string_view b, size_t k);

/// \brief True iff EditDistance(a, b) <= k, using the banded algorithm.
bool EditDistanceAtMost(std::string_view a, std::string_view b, size_t k);

/// \brief Edit similarity (Definition 2):
/// `ES(a, b) = 1 - ED(a, b) / max(|a|, |b|)`. Two empty strings have
/// similarity 1.
double EditSimilarity(std::string_view a, std::string_view b);

/// \brief The largest edit distance that keeps ES >= alpha for strings whose
/// longer one has `max_len` characters: floor((1 - alpha) * max_len). ED is
/// integral, so the epsilon only guards the product's floating-point noise.
inline size_t EditBudget(double alpha, size_t max_len) {
  return static_cast<size_t>(
      std::floor((1.0 - alpha) * static_cast<double>(max_len) + 1e-9));
}

/// \brief True iff ES(a, b) >= alpha, computed with the banded verifier
/// (ED <= EditBudget(alpha, max(|a|,|b|))).
bool EditSimilarityAtLeast(std::string_view a, std::string_view b, double alpha);

}  // namespace ssjoin::sim

#endif  // SSJOIN_SIM_EDIT_DISTANCE_H_
