/// Top-K fuzzy matching against a reference table (§6's composition of
/// SSJoin with a top-k operator; the online record-matching scenario of the
/// paper's [4]): a clean master customer table is indexed once, then dirty
/// incoming records are matched to their best reference rows.

#include <cstdio>

#include "common/timer.h"
#include "datagen/address_gen.h"
#include "datagen/error_model.h"
#include "index/mutable_index.h"

int main() {
  using namespace ssjoin;

  // Clean reference table (no injected duplicates).
  datagen::AddressGenOptions gen;
  gen.num_records = 20000;
  gen.duplicate_fraction = 0.0;
  datagen::AddressDataset master = datagen::GenerateAddresses(gen);

  // The reference table becomes one sealed segment: BulkLoad, then Seal.
  Timer build_timer;
  index::MutableIndexOptions options;
  options.match.word_tokens = true;
  options.match.alpha = 0.3;
  auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.records.size(); ++i) {
    records.emplace_back(i, master.records[i]);
  }
  if (!index->BulkLoad(records).ok() || !index->Seal().ok()) return 1;
  std::printf("indexed %zu reference records in %.1f ms\n", records.size(),
              build_timer.ElapsedMillis());

  // Dirty queries: corrupted copies of random reference records.
  Rng rng(99);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 2.0;
  const size_t kQueries = 2000;
  std::vector<uint64_t> truth;
  std::vector<std::string> queries;
  for (size_t i = 0; i < kQueries; ++i) {
    uint64_t src = rng.Uniform(master.records.size());
    truth.push_back(src);
    queries.push_back(datagen::CorruptRecord(master.records[src],
                                             {{"Ave", "Avenue"}, {"St", "Street"}},
                                             errors, &rng));
  }

  Timer query_timer;
  size_t top1_correct = 0;
  size_t top3_correct = 0;
  for (size_t i = 0; i < kQueries; ++i) {
    auto matches = index->Lookup(queries[i], 3);
    for (size_t m = 0; m < matches.size(); ++m) {
      if (matches[m].id == truth[i]) {
        top3_correct++;
        if (m == 0) top1_correct++;
        break;
      }
    }
  }
  double ms = query_timer.ElapsedMillis();
  std::printf("%zu lookups in %.1f ms (%.2f ms each)\n", kQueries, ms,
              ms / kQueries);
  std::printf("top-1 accuracy: %.1f%%, top-3: %.1f%%\n",
              100.0 * top1_correct / kQueries, 100.0 * top3_correct / kQueries);

  auto sample = index->Lookup(queries[0], 3);
  std::printf("\nquery:  %s\n", queries[0].c_str());
  for (const auto& m : sample) {
    std::printf("  match %.3f: %s\n", m.similarity,
                master.records[m.id].c_str());
  }
  return 0;
}
