#ifndef SSJOIN_COMMON_HASH_H_
#define SSJOIN_COMMON_HASH_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string_view>
#include <utility>

namespace ssjoin {

/// \brief 64-bit mix function (Murmur3 finalizer). Good avalanche behaviour
/// for integer keys used in hash joins and group-bys.
inline uint64_t Mix64(uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ULL;
  x ^= x >> 33;
  return x;
}

/// \brief Combines two hash values (boost::hash_combine style, 64-bit).
inline uint64_t HashCombine(uint64_t seed, uint64_t value) {
  return seed ^ (Mix64(value) + 0x9e3779b97f4a7c15ULL + (seed << 6) + (seed >> 2));
}

/// \brief Continues an FNV-1a hash `h` over the bytes of `s`, so that
/// HashStringFrom(HashString(a), b) == HashString(a + b).
inline uint64_t HashStringFrom(uint64_t h, std::string_view s) {
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

/// \brief FNV-1a string hash.
inline uint64_t HashString(std::string_view s) {
  return HashStringFrom(0xcbf29ce484222325ULL, s);
}

/// \brief Hash functor for pairs of integers (e.g. <R.A, S.A> group keys).
struct PairHash {
  size_t operator()(const std::pair<uint64_t, uint64_t>& p) const {
    return static_cast<size_t>(HashCombine(Mix64(p.first), p.second));
  }
  size_t operator()(const std::pair<uint32_t, uint32_t>& p) const {
    return static_cast<size_t>(
        HashCombine(Mix64(p.first), static_cast<uint64_t>(p.second)));
  }
};

}  // namespace ssjoin

#endif  // SSJOIN_COMMON_HASH_H_
