/// Mutable-index churn bench at the server's maintenance defaults (seal
/// every 256 docs, at most 4 generations): bulk load, incremental replaces
/// (n unchanged, so each publish is O(delta)), incremental inserts of fresh
/// ids (n changes, so each publish recomputes every weight and set-weight
/// column), lookup latency while a writer replaces one doc per lookup (the
/// row's time is the lookups' own), seal/compaction pause and restart cost
/// (WAL replay vs sealed-segment decode). Every row reports the mean
/// `index.publish_us` over its window. Emits BENCH_mutable.json.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "datagen/error_model.h"
#include "index/mutable_index.h"
#include "obs/metrics.h"

namespace ssjoin::bench {
namespace {

constexpr size_t kCorpusSize = 20000;
constexpr size_t kChurnOps = 200;
constexpr size_t kChurnLookups = 1500;

struct MutableRow {
  std::string label;
  double total_ms = 0.0;
  double ops_per_sec = 0.0;
  double p50_us = 0.0;
  double p95_us = 0.0;
  double p99_us = 0.0;
  double publish_us = 0.0;  // mean index.publish_us over the row's window
};

std::vector<MutableRow>& MutableRows() {
  static auto* rows = new std::vector<MutableRow>();
  return *rows;
}

/// The server's defaults: seal_threshold 256, max_generations 4.
index::MutableIndexOptions IndexOptions() {
  index::MutableIndexOptions options;
  options.match.alpha = 0.35;
  return options;
}

/// Count and sum of every `index.publish_us` histogram in the registry; the
/// difference of two reads is the publishes in between.
struct PublishTotals {
  uint64_t count = 0;
  uint64_t sum = 0;

  static PublishTotals Read() {
    PublishTotals t;
    for (const obs::MetricPoint& p : obs::Registry::Global().Snapshot()) {
      if (p.name != "index.publish_us") continue;
      t.count += p.hist.count;
      t.sum += p.hist.sum;
    }
    return t;
  }

  /// Mean publish time since `before` (0 when nothing was published).
  double MeanSince(const PublishTotals& before) const {
    return count > before.count ? static_cast<double>(sum - before.sum) /
                                      static_cast<double>(count - before.count)
                                : 0.0;
  }
};

std::unique_ptr<index::MutableFuzzyIndex> LoadedIndex(
    const std::vector<std::string>& master,
    index::MutableIndexOptions options) {
  auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  records.reserve(master.size());
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  if (!index->BulkLoad(records).ok()) std::abort();
  return index;
}

double Quantile(std::vector<double> sorted_us, double q) {
  if (sorted_us.empty()) return 0.0;
  size_t i = static_cast<size_t>(q * static_cast<double>(sorted_us.size() - 1));
  return sorted_us[i];
}

void BM_BulkLoad(benchmark::State& state) {
  const auto& master = AddressCorpus(kCorpusSize, /*with_name=*/true);
  for (auto _ : state) {
    const PublishTotals before = PublishTotals::Read();
    Timer t;
    auto index = LoadedIndex(master, IndexOptions());
    double ms = t.ElapsedMillis();
    double ops = static_cast<double>(master.size()) / (ms / 1000.0);
    state.counters["docs_per_sec"] = ops;
    MutableRows().push_back({"bulk_load", ms, ops, 0, 0, 0,
                             PublishTotals::Read().MeanSince(before)});
  }
}

/// `kChurnOps` upserts over a warm index, one epoch publish each: replaces
/// of existing docs, or inserts of fresh ids when `insert`.
void RunIncremental(benchmark::State& state, bool insert) {
  const auto& master = AddressCorpus(kCorpusSize, /*with_name=*/true);
  for (auto _ : state) {
    auto index = LoadedIndex(master, IndexOptions());
    const PublishTotals before = PublishTotals::Read();
    Timer t;
    for (size_t i = 0; i < kChurnOps; ++i) {
      size_t doc = (i * 7919) % master.size();
      uint64_t id = insert ? master.size() + i : doc;
      if (!index->Upsert(id, master[(doc + 1) % master.size()]).ok()) {
        std::abort();
      }
    }
    double ms = t.ElapsedMillis();
    double ops = static_cast<double>(kChurnOps) / (ms / 1000.0);
    state.counters["upserts_per_sec"] = ops;
    MutableRows().push_back(
        {insert ? "incremental_insert" : "incremental_upsert", ms, ops, 0, 0,
         0, PublishTotals::Read().MeanSince(before)});
  }
}

void BM_IncrementalUpserts(benchmark::State& state) {
  RunIncremental(state, /*insert=*/false);
}

void BM_IncrementalInserts(benchmark::State& state) {
  RunIncremental(state, /*insert=*/true);
}

void BM_LookupUnderChurn(benchmark::State& state) {
  const auto& master = AddressCorpus(kCorpusSize, /*with_name=*/true);
  Rng rng(kBenchSeed + 2);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.5;
  std::vector<std::string> queries;
  for (size_t i = 0; i < 256; ++i) {
    size_t src = rng.Uniform(master.size());
    queries.push_back(datagen::CorruptRecord(master[src], {}, errors, &rng));
  }

  for (auto _ : state) {
    auto index = LoadedIndex(master, IndexOptions());
    const PublishTotals before = PublishTotals::Read();
    // Lock-step churn: the writer applies upsert i once lookup i is issued,
    // and lookup i is issued once upserts 0..i-1 are applied. So upsert i
    // runs beside lookup i, and every lookup meets the index after the same
    // writes (hence the same seals and compactions) however fast either
    // side is. Only the lookups are timed.
    std::atomic<size_t> issued{0};
    std::atomic<size_t> written{0};
    std::thread writer([&] {
      for (size_t i = 0; i < kChurnLookups; ++i) {
        issued.wait(i);
        size_t doc = (i * 6151) % master.size();
        if (!index->Upsert(doc, master[(doc + 3) % master.size()]).ok()) {
          std::abort();
        }
        written.store(i + 1);
        written.notify_one();
      }
    });

    std::vector<double> lat_us;
    lat_us.reserve(kChurnLookups);
    double ms = 0.0;
    for (size_t i = 0; i < kChurnLookups; ++i) {
      for (size_t w = written.load(); w < i; w = written.load()) written.wait(w);
      issued.store(i + 1);
      issued.notify_one();
      Timer t;
      auto r = index->Lookup(queries[i % queries.size()], 3);
      benchmark::DoNotOptimize(r);
      const double lookup_ms = t.ElapsedMillis();
      ms += lookup_ms;
      lat_us.push_back(lookup_ms * 1000.0);
    }
    writer.join();

    std::sort(lat_us.begin(), lat_us.end());
    MutableRow row{"lookup_under_churn", ms,
                   static_cast<double>(kChurnLookups) / (ms / 1000.0),
                   Quantile(lat_us, 0.50), Quantile(lat_us, 0.95),
                   Quantile(lat_us, 0.99), PublishTotals::Read().MeanSince(before)};
    state.counters["qps"] = row.ops_per_sec;
    state.counters["p50_us"] = row.p50_us;
    state.counters["p95_us"] = row.p95_us;
    state.counters["p99_us"] = row.p99_us;
    MutableRows().push_back(row);
  }
}

void BM_SealAndCompactPause(benchmark::State& state) {
  const auto& master = AddressCorpus(kCorpusSize, /*with_name=*/true);
  for (auto _ : state) {
    auto index = LoadedIndex(master, IndexOptions());
    // Grow a tail plus tombstones so both maintenance ops have real work.
    for (size_t i = 0; i < 128; ++i) {
      if (!index->Upsert(kCorpusSize + i, master[i % master.size()]).ok()) {
        std::abort();
      }
    }
    for (size_t i = 0; i < 64; ++i) {
      if (!index->Delete(i * 3).ok()) std::abort();
    }
    const PublishTotals before_seal = PublishTotals::Read();
    Timer seal_t;
    if (!index->Seal().ok()) std::abort();
    double seal_ms = seal_t.ElapsedMillis();
    const PublishTotals before_compact = PublishTotals::Read();
    Timer compact_t;
    if (!index->Compact().ok()) std::abort();
    double compact_ms = compact_t.ElapsedMillis();
    state.counters["seal_ms"] = seal_ms;
    state.counters["compact_ms"] = compact_ms;
    MutableRows().push_back({"seal_pause", seal_ms, 0, 0, 0, 0,
                             before_compact.MeanSince(before_seal)});
    MutableRows().push_back({"compact_pause", compact_ms, 0, 0, 0, 0,
                             PublishTotals::Read().MeanSince(before_compact)});
  }
}

void BM_RestartRecovery(benchmark::State& state) {
  const auto& master = AddressCorpus(kCorpusSize, /*with_name=*/true);
  std::string dir =
      (std::filesystem::temp_directory_path() / "ssjoin_bench_mutable").string();
  for (auto _ : state) {
    index::MutableIndexOptions options = IndexOptions();
    std::filesystem::remove_all(dir);
    options.data_dir = dir;
    {
      auto index = index::MutableFuzzyIndex::Create(options).MoveValueUnsafe();
      std::vector<std::pair<uint64_t, std::string>> records;
      for (size_t i = 0; i < 4096; ++i) records.emplace_back(i, master[i]);
      if (!index->BulkLoad(records).ok()) std::abort();
      if (!index->Seal().ok()) std::abort();
      // Unsealed churn that restart must replay from the WAL.
      for (size_t i = 0; i < kChurnOps; ++i) {
        if (!index->Upsert(i % 4096, master[(i + 11) % master.size()]).ok()) {
          std::abort();
        }
      }
    }
    const PublishTotals before = PublishTotals::Read();
    Timer t;
    auto reopened = index::MutableFuzzyIndex::Open(options);
    if (!reopened.ok()) std::abort();
    double ms = t.ElapsedMillis();
    state.counters["reopen_ms"] = ms;
    state.counters["replayed_ops"] = static_cast<double>(kChurnOps);
    MutableRows().push_back(
        {"restart_recovery", ms, static_cast<double>(kChurnOps) / (ms / 1000.0),
         0, 0, 0, PublishTotals::Read().MeanSince(before)});
  }
  std::filesystem::remove_all(dir);
}

void RegisterAll() {
  auto reg = [](const char* name, void (*fn)(benchmark::State&)) {
    benchmark::RegisterBenchmark(name, fn)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond)
        ->MeasureProcessCPUTime()
        ->UseRealTime();
  };
  reg("mutable/bulk_load", BM_BulkLoad);
  reg("mutable/incremental_upserts", BM_IncrementalUpserts);
  reg("mutable/incremental_inserts", BM_IncrementalInserts);
  reg("mutable/lookup_under_churn", BM_LookupUnderChurn);
  reg("mutable/seal_compact_pause", BM_SealAndCompactPause);
  reg("mutable/restart_recovery", BM_RestartRecovery);
}

}  // namespace
}  // namespace ssjoin::bench

int main(int argc, char** argv) {
  ssjoin::bench::InitBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  ssjoin::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();

  std::printf(
      "\n=== Mutable index churn (%zu reference strings, %zu churn ops) ===\n",
      ssjoin::bench::kCorpusSize, ssjoin::bench::kChurnOps);
  std::printf("%-22s %10s %12s %9s %9s %9s %12s\n", "phase", "total(ms)",
              "ops/s", "p50(us)", "p95(us)", "p99(us)", "publish(us)");
  for (const auto& row : ssjoin::bench::MutableRows()) {
    std::printf("%-22s %10.1f %12.0f %9.1f %9.1f %9.1f %12.1f\n",
                row.label.c_str(), row.total_ms, row.ops_per_sec, row.p50_us,
                row.p95_us, row.p99_us, row.publish_us);
  }

  {
    std::vector<ssjoin::bench::JsonRecord> recs;
    for (const auto& row : ssjoin::bench::MutableRows()) {
      recs.push_back(ssjoin::bench::JsonRecord()
                         .Str("label", row.label)
                         .Num("total_ms", row.total_ms)
                         .Num("ops_per_sec", row.ops_per_sec)
                         .Num("p50_us", row.p50_us)
                         .Num("p95_us", row.p95_us)
                         .Num("p99_us", row.p99_us)
                         .Num("publish_us", row.publish_us));
    }
    ssjoin::bench::WriteBenchJson("mutable", recs);
  }
  return 0;
}
