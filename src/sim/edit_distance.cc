#include "sim/edit_distance.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

namespace ssjoin::sim {

size_t EditDistance(std::string_view a, std::string_view b) {
  if (a.size() < b.size()) std::swap(a, b);  // b is the shorter string
  if (b.empty()) return a.size();
  // One-row DP over the shorter string.
  std::vector<size_t> row(b.size() + 1);
  for (size_t j = 0; j <= b.size(); ++j) row[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t diag = row[0];  // D[i-1][j-1]
    row[0] = i;
    for (size_t j = 1; j <= b.size(); ++j) {
      size_t up = row[j];  // D[i-1][j]
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      row[j] = std::min({row[j - 1] + 1, up + 1, diag + cost});
      diag = up;
    }
  }
  return row[b.size()];
}

size_t EditDistanceBounded(std::string_view a, std::string_view b, size_t k) {
  if (a.size() < b.size()) std::swap(a, b);
  // Length difference alone is a lower bound on the distance.
  if (a.size() - b.size() > k) return k + 1;
  if (b.empty()) return a.size();

  const size_t kInf = std::numeric_limits<size_t>::max() / 2;
  // Band of half-width k around the diagonal, over the shorter string b.
  std::vector<size_t> row(b.size() + 1, kInf);
  std::vector<size_t> prev(b.size() + 1, kInf);
  for (size_t j = 0; j <= std::min(b.size(), k); ++j) prev[j] = j;
  for (size_t i = 1; i <= a.size(); ++i) {
    size_t lo = (i > k) ? i - k : 0;
    size_t hi = std::min(b.size(), i + k);
    if (lo > hi) return k + 1;
    std::fill(row.begin(), row.end(), kInf);
    if (lo == 0) row[0] = i;
    size_t row_min = kInf;
    for (size_t j = std::max<size_t>(lo, 1); j <= hi; ++j) {
      size_t cost = (a[i - 1] == b[j - 1]) ? 0 : 1;
      size_t best = prev[j - 1] + cost;  // substitute/match
      if (prev[j] != kInf) best = std::min(best, prev[j] + 1);      // delete from a
      if (row[j - 1] != kInf) best = std::min(best, row[j - 1] + 1);  // insert into a
      row[j] = best;
      row_min = std::min(row_min, best);
    }
    if (lo == 0) row_min = std::min(row_min, row[0]);
    if (row_min > k) return k + 1;  // the whole band exceeded k: early exit
    std::swap(row, prev);
  }
  return std::min(prev[b.size()], k + 1);
}

bool EditDistanceAtMost(std::string_view a, std::string_view b, size_t k) {
  return EditDistanceBounded(a, b, k) <= k;
}

double EditSimilarity(std::string_view a, std::string_view b) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return 1.0;
  return 1.0 - static_cast<double>(EditDistance(a, b)) / static_cast<double>(max_len);
}

bool EditSimilarityAtLeast(std::string_view a, std::string_view b, double alpha) {
  size_t max_len = std::max(a.size(), b.size());
  if (max_len == 0) return true;
  if (alpha <= 0.0) return true;
  return EditDistanceAtMost(a, b, EditBudget(alpha, max_len));
}

}  // namespace ssjoin::sim
