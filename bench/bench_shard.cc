/// Sharded-serving bench: closed-loop QPS/latency through a
/// ShardedLookupIndex at N shards x M concurrent clients, every request
/// carrying a per-request deadline. p50/p99 are the fan-out's own
/// `shard.latency_us` (entry to merged answer, what a client waits), not a
/// per-shard service figure. Reports whether the p99 stayed under the
/// deadline (`deadline_ok`) — the scaling claim the shard tier makes is
/// "QPS grows with N while the tail stays inside the budget", and this bench
/// is what checks it.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <thread>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "datagen/error_model.h"
#include "shard/sharded_index.h"

namespace ssjoin::bench {
namespace {

constexpr size_t kReferenceSize = 20000;
constexpr size_t kRequestsPerClient = 1000;
constexpr int kDeadlineMs = 250;

struct ShardRow {
  uint32_t shards;
  size_t clients;
  double total_ms;
  double qps;
  uint64_t deadline_rejects;
  double p50_us;
  double p99_us;
};

std::vector<ShardRow>& ShardRows() {
  static auto* rows = new std::vector<ShardRow>();
  return *rows;
}

std::vector<std::string> DirtyQueries(const std::vector<std::string>& master,
                                      size_t n) {
  Rng rng(kBenchSeed + 2);
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

void BM_Shard(benchmark::State& state, uint32_t shards, size_t clients) {
  const auto& master = AddressCorpus(kReferenceSize, /*with_name=*/true);
  auto queries = DirtyQueries(master, 2048);

  for (auto _ : state) {
    shard::ShardedIndexOptions options;
    options.num_shards = shards;
    options.match.alpha = 0.35;
    auto index =
        shard::ShardedLookupIndex::Create(options).MoveValueUnsafe();
    {
      std::vector<std::pair<uint64_t, std::string>> records;
      records.reserve(master.size());
      for (size_t i = 0; i < master.size(); ++i) {
        records.emplace_back(i, master[i]);
      }
      if (!index->BulkLoad(records).ok()) std::abort();
      if (!index->Seal().ok()) std::abort();
    }

    std::atomic<uint64_t> deadline_rejects{0};
    Timer t;
    std::vector<std::thread> threads;
    for (size_t c = 0; c < clients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < kRequestsPerClient; ++i) {
          size_t q = (c * kRequestsPerClient + i) % queries.size();
          auto r = index->Lookup(queries[q], 3,
                                 std::chrono::milliseconds(kDeadlineMs));
          if (!r.ok()) {
            deadline_rejects.fetch_add(1, std::memory_order_relaxed);
          }
          benchmark::DoNotOptimize(r);
        }
      });
    }
    for (auto& th : threads) th.join();
    double total_ms = t.ElapsedMillis();

    const obs::Histogram& latency =
        *index->metrics().GetHistogram("shard.latency_us");
    double p50_us = latency.Quantile(0.50);
    double p99_us = latency.Quantile(0.99);
    double requests = static_cast<double>(clients * kRequestsPerClient);
    double qps = requests / (total_ms / 1000.0);
    state.counters["qps"] = qps;
    state.counters["p50_us"] = p50_us;
    state.counters["p99_us"] = p99_us;
    state.counters["deadline_rejects"] =
        static_cast<double>(deadline_rejects.load());
    ShardRows().push_back({shards, clients, total_ms, qps,
                           deadline_rejects.load(), p50_us, p99_us});
  }
}

void RegisterAll() {
  for (uint32_t shards : {1u, 2u, 4u}) {
    for (size_t clients : {1ul, 4ul, 16ul}) {
      std::string name = "shard/n=" + std::to_string(shards) +
                         "/clients=" + std::to_string(clients);
      benchmark::RegisterBenchmark(name.c_str(), BM_Shard, shards, clients)
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
      "\n=== Sharded scatter-gather closed loop (%zu reference strings, "
      "%zu req/client, k=3, deadline %d ms) ===\n",
      ssjoin::bench::kReferenceSize, ssjoin::bench::kRequestsPerClient,
      ssjoin::bench::kDeadlineMs);
  std::printf("%-22s %10s %10s %10s %10s %12s\n", "config", "total(ms)", "qps",
              "p50(us)", "p99(us)", "deadline_ok");
  for (const auto& row : ssjoin::bench::ShardRows()) {
    bool deadline_ok = row.p99_us < ssjoin::bench::kDeadlineMs * 1000.0 &&
                       row.deadline_rejects == 0;
    std::printf("n=%-2u clients=%-12zu %10.1f %10.0f %10.1f %10.1f %12s\n",
                row.shards, row.clients, row.total_ms, row.qps, row.p50_us,
                row.p99_us, deadline_ok ? "yes" : "NO");
  }

  {
    std::vector<ssjoin::bench::JsonRecord> recs;
    for (const auto& row : ssjoin::bench::ShardRows()) {
      bool deadline_ok = row.p99_us < ssjoin::bench::kDeadlineMs * 1000.0 &&
                         row.deadline_rejects == 0;
      recs.push_back(ssjoin::bench::JsonRecord()
                         .Str("label", "n=" + std::to_string(row.shards) +
                                           "/clients=" +
                                           std::to_string(row.clients))
                         .Int("shards", row.shards)
                         .Int("clients", row.clients)
                         .Num("total_ms", row.total_ms)
                         .Num("qps", row.qps)
                         .Num("p50_us", row.p50_us)
                         .Num("p99_us", row.p99_us)
                         .Int("deadline_ms", ssjoin::bench::kDeadlineMs)
                         .Int("deadline_rejects", row.deadline_rejects)
                         .Int("deadline_ok", deadline_ok ? 1 : 0));
    }
    ssjoin::bench::WriteBenchJson("shard", recs);
  }
  return 0;
}
