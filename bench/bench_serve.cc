/// Serving bench: closed-loop QPS/latency through LookupService with 1/2/8
/// concurrent client threads, warm (repeating query mix, cache on) vs cold
/// (every query distinct, cache off). Latency quantiles come from the
/// service's own histogram, so the numbers match what `stats` reports in
/// production.

#include <benchmark/benchmark.h>

#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "datagen/error_model.h"
#include "index/mutable_index.h"
#include "serve/lookup_service.h"

namespace ssjoin::bench {
namespace {

constexpr size_t kReferenceSize = 20000;
constexpr size_t kRequestsPerClient = 2000;
constexpr size_t kWarmDistinctQueries = 256;  // small mix -> cache hits dominate

struct ServeRow {
  std::string label;
  size_t clients;
  bool warm;
  double total_ms;
  double qps;
  double hit_rate;
  serve::StatsSnapshot stats;
};

std::vector<ServeRow>& ServeRows() {
  static auto* rows = new std::vector<ServeRow>();
  return *rows;
}

std::vector<std::string> DirtyQueries(const std::vector<std::string>& master,
                                      size_t n) {
  Rng rng(kBenchSeed + 1);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.5;
  std::vector<std::string> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t src = rng.Uniform(master.size());
    queries.push_back(datagen::CorruptRecord(master[src], {}, errors, &rng));
  }
  return queries;
}

void BM_Serve(benchmark::State& state, size_t clients, bool warm) {
  const auto& master = AddressCorpus(kReferenceSize, /*with_name=*/true);
  index::MutableIndexOptions index_options;
  index_options.match.alpha = 0.35;

  // Cold: every request is a distinct query and the cache is disabled, so
  // each one runs the full lookup. Warm: clients cycle a small mix with the
  // cache on, so steady state is nearly all hits.
  size_t distinct =
      warm ? kWarmDistinctQueries : clients * kRequestsPerClient;
  auto queries = DirtyQueries(master, distinct);

  double total_ms = 0.0;
  for (auto _ : state) {
    auto index = index::MutableFuzzyIndex::Create(index_options).MoveValueUnsafe();
    {
      std::vector<std::pair<uint64_t, std::string>> records;
      records.reserve(master.size());
      for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
      if (!index->BulkLoad(records).ok()) std::abort();
    }
    serve::LookupServiceOptions options;
    options.cache_capacity = warm ? 4096 : 0;
    auto service = serve::LookupService::Create(std::move(index), options)
                       .MoveValueUnsafe();

    Timer t;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < kRequestsPerClient; ++i) {
          size_t q = (c * kRequestsPerClient + i) % queries.size();
          auto r = service->Lookup(queries[q], 3);
          benchmark::DoNotOptimize(r);
        }
      });
    }
    for (auto& th : threads) th.join();
    total_ms = t.ElapsedMillis();

    serve::StatsSnapshot stats = service->Stats();
    double requests = static_cast<double>(stats.requests);
    double qps = requests / (total_ms / 1000.0);
    double hit_rate =
        requests > 0 ? static_cast<double>(stats.cache_hits) / requests : 0.0;
    state.counters["qps"] = qps;
    state.counters["p50_us"] = stats.latency_p50_us;
    state.counters["p95_us"] = stats.latency_p95_us;
    state.counters["p99_us"] = stats.latency_p99_us;
    state.counters["cache_hit_rate"] = hit_rate;
    ServeRows().push_back({std::string(warm ? "warm" : "cold") + "/clients=" +
                               std::to_string(clients),
                           clients, warm, total_ms, qps, hit_rate, stats});
  }
}

void RegisterAll() {
  for (bool warm : {false, true}) {
    for (size_t clients : {1ul, 2ul, 8ul}) {
      std::string name = std::string("serve/") + (warm ? "warm" : "cold") +
                         "/clients=" + std::to_string(clients);
      benchmark::RegisterBenchmark(name.c_str(), BM_Serve, clients, warm)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond)
          ->MeasureProcessCPUTime()
          ->UseRealTime();
    }
  }
}

}  // namespace
}  // namespace ssjoin::bench

int main(int argc, char** argv) {
  ssjoin::bench::InitBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  ssjoin::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();

  std::printf(
      "\n=== LookupService closed loop (%zu reference strings, %zu req/client, "
      "k=3) ===\n",
      ssjoin::bench::kReferenceSize, ssjoin::bench::kRequestsPerClient);
  std::printf("%-18s %10s %10s %10s %10s %10s %9s\n", "mode", "total(ms)",
              "qps", "p50(us)", "p95(us)", "p99(us)", "hit rate");
  for (const auto& row : ssjoin::bench::ServeRows()) {
    std::printf("%-18s %10.1f %10.0f %10.1f %10.1f %10.1f %8.1f%%\n",
                row.label.c_str(), row.total_ms, row.qps,
                row.stats.latency_p50_us, row.stats.latency_p95_us,
                row.stats.latency_p99_us, row.hit_rate * 100.0);
  }

  {
    std::vector<ssjoin::bench::JsonRecord> recs;
    for (const auto& row : ssjoin::bench::ServeRows()) {
      recs.push_back(ssjoin::bench::JsonRecord()
                         .Str("label", row.label)
                         .Int("clients", row.clients)
                         .Int("warm_cache", row.warm ? 1 : 0)
                         .Num("total_ms", row.total_ms)
                         .Num("qps", row.qps)
                         .Num("p50_us", row.stats.latency_p50_us)
                         .Num("p95_us", row.stats.latency_p95_us)
                         .Num("p99_us", row.stats.latency_p99_us)
                         .Num("cache_hit_rate", row.hit_rate)
                         .Int("requests", row.stats.requests));
    }
    ssjoin::bench::WriteBenchJson("serve", recs);
  }
  return 0;
}
