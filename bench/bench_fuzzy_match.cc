/// Extension bench (§6's top-K composition): lookup-index build cost (one
/// BulkLoad + Seal into a single sealed segment) and per-query lookup
/// latency/throughput against reference tables of increasing size, with
/// dirty queries. Next to the latency it reports the per-lookup work counts
/// (`index.lookup.{candidates,verifications}` deltas), which are
/// deterministic and so diff cleanly between runs.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "datagen/error_model.h"
#include "index/mutable_index.h"
#include "obs/metrics.h"

namespace ssjoin::bench {
namespace {

struct FmRow {
  size_t reference_size;
  double build_ms;
  double per_lookup_ms;
  double candidates;     // per lookup: distinct live docs met by the prefix
  double verifications;  // per lookup: verified past the positional bound
  double top1_accuracy;
};

std::vector<FmRow>& FmRows() {
  static auto* rows = new std::vector<FmRow>();
  return *rows;
}

void BM_FuzzyLookup(benchmark::State& state, size_t reference_size) {
  const auto& master = AddressCorpus(reference_size, /*with_name=*/true);
  index::MutableIndexOptions options;
  options.match.alpha = 0.35;
  Timer build_timer;
  auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  records.reserve(master.size());
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  if (!index->BulkLoad(records).ok() || !index->Seal().ok()) {
    std::fprintf(stderr, "index build failed\n");
    std::exit(2);
  }
  double build_ms = build_timer.ElapsedMillis();

  Rng rng(kBenchSeed);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.5;
  const size_t kQueries = 2000;
  std::vector<uint64_t> truth(kQueries);
  std::vector<std::string> queries(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    truth[i] = rng.Uniform(master.size());
    queries[i] = datagen::CorruptRecord(master[truth[i]], {}, errors, &rng);
  }

  obs::Counter* candidates =
      obs::Registry::Global().GetCounter("index.lookup.candidates");
  obs::Counter* verifications =
      obs::Registry::Global().GetCounter("index.lookup.verifications");
  size_t correct = 0;
  double lookup_ms = 0.0;
  uint64_t candidates_run = 0;
  uint64_t verifications_run = 0;
  for (auto _ : state) {
    correct = 0;
    const uint64_t candidates_before = candidates->value();
    const uint64_t verifications_before = verifications->value();
    Timer t;
    for (size_t i = 0; i < kQueries; ++i) {
      auto matches = index->Lookup(queries[i], 1);
      if (!matches.empty() && matches[0].id == truth[i]) ++correct;
    }
    lookup_ms = t.ElapsedMillis();
    candidates_run = candidates->value() - candidates_before;
    verifications_run = verifications->value() - verifications_before;
  }
  const auto per_query = [&](double total) {
    return total / static_cast<double>(kQueries);
  };
  FmRow row{reference_size,
            build_ms,
            per_query(lookup_ms),
            per_query(static_cast<double>(candidates_run)),
            per_query(static_cast<double>(verifications_run)),
            per_query(static_cast<double>(correct))};
  state.counters["build_ms"] = row.build_ms;
  state.counters["per_lookup_ms"] = row.per_lookup_ms;
  state.counters["candidates"] = row.candidates;
  state.counters["verifications"] = row.verifications;
  state.counters["top1_accuracy"] = row.top1_accuracy;
  FmRows().push_back(row);
}

void RegisterAll() {
  for (size_t n : {10000ul, 50000ul, 100000ul}) {
    std::string name = "fuzzy-match/reference=" + std::to_string(n / 1000) + "K";
    benchmark::RegisterBenchmark(name.c_str(), BM_FuzzyLookup, n)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace ssjoin::bench

int main(int argc, char** argv) {
  ssjoin::bench::InitBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  ssjoin::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\n=== Top-K fuzzy match (2000 dirty queries, k=1, alpha=0.35) ===\n");
  std::printf("%12s %12s %16s %12s %12s %10s\n", "reference", "build(ms)",
              "per-lookup(ms)", "candidates", "verifies", "top-1 acc");
  for (const auto& row : ssjoin::bench::FmRows()) {
    std::printf("%12zu %12.1f %16.3f %12.1f %12.1f %9.1f%%\n",
                row.reference_size, row.build_ms, row.per_lookup_ms,
                row.candidates, row.verifications, row.top1_accuracy * 100.0);
  }
  {
    std::vector<ssjoin::bench::JsonRecord> recs;
    for (const auto& row : ssjoin::bench::FmRows()) {
      recs.push_back(ssjoin::bench::JsonRecord()
                         .Int("reference_size", row.reference_size)
                         .Num("build_ms", row.build_ms)
                         .Num("per_lookup_ms", row.per_lookup_ms)
                         .Num("candidates", row.candidates)
                         .Num("verifications", row.verifications)
                         .Num("top1_accuracy", row.top1_accuracy));
    }
    ssjoin::bench::WriteBenchJson("fuzzy_match", recs);
  }
  return 0;
}
