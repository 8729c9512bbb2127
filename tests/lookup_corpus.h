/// Shared inputs of the lookup-index tests: clean reference tables of
/// synthetic addresses, dirty queries drawn from them, and scratch dirs.

#ifndef SSJOIN_TESTS_LOOKUP_CORPUS_H_
#define SSJOIN_TESTS_LOOKUP_CORPUS_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/address_gen.h"
#include "datagen/error_model.h"

namespace ssjoin {

/// `n` synthetic addresses without injected duplicates.
inline std::vector<std::string> Master(size_t n, uint64_t seed) {
  datagen::AddressGenOptions opts;
  opts.num_records = n;
  opts.duplicate_fraction = 0.0;
  opts.seed = seed;
  return datagen::GenerateAddresses(opts).records;
}

/// `n` queries, each a copy of a random `master` row with 1.5 character
/// edits on average.
inline std::vector<std::string> DirtyQueries(
    const std::vector<std::string>& master, size_t n, uint64_t seed) {
  Rng rng(seed);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.5;
  std::vector<std::string> queries;
  for (size_t i = 0; i < n; ++i) {
    size_t src = rng.Uniform(master.size());
    queries.push_back(datagen::CorruptRecord(master[src], {}, errors, &rng));
  }
  return queries;
}

/// An empty scratch path under the test temp dir; `name` must be unique
/// across test binaries, which ctest runs concurrently.
inline std::string FreshDir(const std::string& name) {
  std::string dir = ::testing::TempDir() + "/" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

}  // namespace ssjoin

#endif  // SSJOIN_TESTS_LOOKUP_CORPUS_H_
