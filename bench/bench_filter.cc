/// Filtered-lookup frontier: per-query latency and candidate reduction of
/// filtered lookups across a selectivity × corpus-size grid, next to exact
/// post-filtering. Each record carries a `bucket` attribute in [0, 100); a
/// filter selecting b of the 100 buckets has selectivity b/100. The filtered
/// lookup tests the predicate per similarity candidate BEFORE verification,
/// so `cand_kept/cand_in` should track the selectivity and filtered lookups
/// should get cheaper as filters tighten — unlike post-filtering, which pays
/// the full unfiltered lookup (unbounded k) first.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "datagen/error_model.h"
#include "filter/attr.h"
#include "filter/metrics.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"

namespace ssjoin::bench {
namespace {

struct FilterRow {
  size_t reference_size;
  double selectivity;
  double filtered_ms;
  double postfilter_ms;
  double kept_fraction;  // cand_kept / cand_in over the measured pass
};

std::vector<FilterRow>& FilterRows() {
  static auto* rows = new std::vector<FilterRow>();
  return *rows;
}

/// A filter selecting `buckets` of the 100 bucket values (selectivity
/// buckets/100); 100 means "no filter".
filter::FilterPredicate BucketFilter(int buckets) {
  filter::FilterPredicate pred;
  if (buckets >= 100) return pred;
  filter::FilterConjunct c;
  c.name = "bucket";
  for (int b = 0; b < buckets; ++b) {
    c.values.push_back(filter::AttrValue::Int64(b));
  }
  if (Status st = pred.AddConjunct(std::move(c)); !st.ok()) {
    std::fprintf(stderr, "bucket filter: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  return pred;
}

void BM_FilteredLookup(benchmark::State& state, size_t reference_size,
                       int buckets) {
  const auto& master = AddressCorpus(reference_size, /*with_name=*/true);
  index::MutableIndexOptions options;
  options.match.alpha = 0.35;
  auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  std::vector<filter::AttrSet> attrs(master.size());
  for (size_t i = 0; i < attrs.size(); ++i) {
    records.emplace_back(i, master[i]);
    if (Status st = attrs[i].Set(
            "bucket", filter::AttrValue::Int64(static_cast<int64_t>(i % 100)));
        !st.ok()) {
      std::fprintf(stderr, "attrs: %s\n", st.ToString().c_str());
      std::exit(2);
    }
  }
  if (Status st = index->BulkLoad(records, attrs); !st.ok() ||
      !(st = index->Seal()).ok()) {
    std::fprintf(stderr, "build: %s\n", st.ToString().c_str());
    std::exit(2);
  }
  std::shared_ptr<const index::EpochState> epoch = index->Snapshot();

  Rng rng(kBenchSeed);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.5;
  const size_t kQueries = 1000;
  std::vector<std::string> queries(kQueries);
  for (size_t i = 0; i < kQueries; ++i) {
    queries[i] =
        datagen::CorruptRecord(master[rng.Uniform(master.size())], {}, errors,
                               &rng);
  }

  filter::FilterPredicate pred = BucketFilter(buckets);
  const auto& counters = filter::FilterMetrics();
  const size_t k = 5;
  // One untimed pass warms the index, so neither timed pass below pays for
  // the cold caches of whichever runs first.
  for (const std::string& q : queries) {
    benchmark::DoNotOptimize(index->LookupAt(*epoch, q, k));
  }

  double filtered_ms = 0.0;
  double postfilter_ms = 0.0;
  double kept_fraction = 1.0;
  for (auto _ : state) {
    uint64_t in_before = counters.candidates_in->value();
    uint64_t kept_before = counters.candidates_kept->value();
    Timer t;
    size_t hits = 0;
    for (const std::string& q : queries) {
      hits += index->LookupAt(*epoch, q, k, pred).size();
    }
    filtered_ms = t.ElapsedMillis();
    benchmark::DoNotOptimize(hits);
    uint64_t in = counters.candidates_in->value() - in_before;
    uint64_t kept = counters.candidates_kept->value() - kept_before;
    kept_fraction =
        in > 0 ? static_cast<double>(kept) / static_cast<double>(in) : 1.0;

    // The naive alternative: full unfiltered lookup, then post-filter.
    Timer t2;
    size_t naive_hits = 0;
    for (const std::string& q : queries) {
      auto all = index->LookupAt(*epoch, q, master.size());
      size_t taken = 0;
      for (const auto& m : all) {
        if (pred.Matches(attrs[m.id])) {
          if (++taken == k) break;
        }
      }
      naive_hits += taken;
    }
    postfilter_ms = t2.ElapsedMillis();
    benchmark::DoNotOptimize(naive_hits);
  }

  double selectivity = buckets >= 100 ? 1.0 : buckets / 100.0;
  state.counters["per_lookup_ms"] =
      filtered_ms / static_cast<double>(kQueries);
  state.counters["cand_kept_frac"] = kept_fraction;
  FilterRows().push_back({reference_size, selectivity,
                    filtered_ms / static_cast<double>(kQueries),
                    postfilter_ms / static_cast<double>(kQueries),
                    kept_fraction});
}

void RegisterAll() {
  for (size_t n : {10000ul, 50000ul}) {
    for (int buckets : {100, 50, 10, 1}) {
      std::string name = "filtered-lookup/reference=" +
                         std::to_string(n / 1000) + "K/sel=" +
                         (buckets >= 100 ? std::string("1.0")
                                         : "0." + std::string(buckets < 10
                                                                  ? "0"
                                                                  : "") +
                                               std::to_string(buckets));
      benchmark::RegisterBenchmark(name.c_str(), BM_FilteredLookup, n, buckets)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
}

}  // namespace
}  // namespace ssjoin::bench

int main(int argc, char** argv) {
  ssjoin::bench::InitBenchFlags(&argc, argv);
  ssjoin::filter::RegisterFilterMetrics();
  benchmark::Initialize(&argc, argv);
  ssjoin::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  std::printf(
      "\n=== Filtered fuzzy lookup (1000 dirty queries, k=5, alpha=0.35) "
      "===\n");
  std::printf("%12s %12s %14s %16s %14s\n", "reference", "selectivity",
              "filtered(ms)", "post-filter(ms)", "cand kept");
  for (const auto& row : ssjoin::bench::FilterRows()) {
    std::printf("%12zu %12.2f %14.3f %16.3f %13.1f%%\n", row.reference_size,
                row.selectivity, row.filtered_ms, row.postfilter_ms,
                row.kept_fraction * 100.0);
  }
  benchmark::Shutdown();
  return 0;
}
