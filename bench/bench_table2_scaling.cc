/// Table 2: varying the input data size — a Jaccard self-join at threshold
/// 0.85 with the prefix-filtered implementation, reporting the size of the
/// normalized SSJoin input (rows of the 1NF set representation), the output
/// size and the time, for relations of 25K..330K records — extended with a
/// thread-scaling dimension: each workload also runs with N workers of the
/// morsel-driven runtime (src/exec) so the 1-vs-N speedup is tracked in
/// the same table (the 25K workload at 1 vs 4 threads is the canonical
/// scaling probe; override the parallel arm with --threads N).
///
/// Expected shape: SSJoin input grows linearly with the record count; time
/// grows with input and output size; on a machine with enough cores the
/// parallel arm approaches serial_time/threads with identical output.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "kernels/kernels.h"
#include "simjoin/string_joins.h"

namespace ssjoin::bench {
namespace {

constexpr double kAlpha = 0.85;  // the paper's fixed threshold

struct Table2Row {
  size_t records;
  size_t threads;
  size_t ssjoin_input_rows;
  size_t output_pairs;
  double total_ms;
  std::string kernel;     // requested kernel tier this row ran under
  double ssjoin_ms = 0.0; // SSJoin phase (candidate gen + verify hot loops)
};

std::vector<Table2Row>& Table2Rows() {
  static auto* rows = new std::vector<Table2Row>();
  return *rows;
}

/// `kernel` pins a kernel tier for this run (empty = leave the process-wide
/// setting, i.e. --kernel / SSJOIN_KERNEL / auto).
void BM_Scaling(benchmark::State& state, size_t records, size_t threads,
                const char* kernel) {
  if (*kernel != '\0') {
    kernels::SetTier(*kernels::ParseTier(kernel)).AbortIfError();
  }
  const auto& data = AddressCorpus(records, /*with_name=*/true);
  simjoin::JoinExecution execution =
      MakeExec(core::SSJoinAlgorithm::kPrefixFilterInline);
  execution.exec.num_threads = threads;
  simjoin::SimJoinStats stats;
  double total_ms = 0.0;
  for (auto _ : state) {
    stats = {};
    Timer timer;
    auto result =
        simjoin::JaccardResemblanceJoin(data, data, kAlpha, {}, execution, &stats);
    result.status().AbortIfError();
    total_ms = timer.ElapsedMillis();
    benchmark::DoNotOptimize(result->size());
    // Input rows of the 1NF set representation = prefix-filter input size.
    Table2Rows().push_back(
        {records, threads,
         stats.ssjoin.r_prefix_elements + stats.ssjoin.s_prefix_elements,
         stats.result_pairs, total_ms,
         *kernel != '\0' ? kernel : kernels::ActiveTierName(),
         stats.phases.Millis("SSJoin") + stats.phases.Millis("Filter")});
  }
  ExportCounters(state, stats);
  state.counters["threads"] = static_cast<double>(threads);
}

void RegisterAll() {
  // --threads N overrides the parallel arm (default 4, the scaling target).
  size_t par =
      BenchExec().num_threads != 1 ? BenchExec().resolved_threads() : 4;
  for (size_t records : {25000ul, 100000ul, 200000ul, 330000ul}) {
    for (size_t threads : {size_t{1}, par}) {
      std::string name = "table2/records=" + std::to_string(records / 1000) +
                         "K/threads=" + std::to_string(threads);
      benchmark::RegisterBenchmark(name.c_str(), BM_Scaling, records, threads,
                                   "")
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
    }
  }
  // Kernel before/after arms: the canonical 25K workload pinned to the
  // scalar oracle vs the auto-dispatched tiers, serial and parallel, so the
  // kernel subsystem's end-to-end effect on the SSJoin phase is tracked in
  // the same table. The inline verify runs kernels::MarkedSet at every
  // tier, so the arms differ only in the candidate posting probe.
  for (const char* kernel : {"scalar", "auto"}) {
    for (size_t threads : {size_t{1}, par}) {
      std::string name = "table2/records=25K/threads=" +
                         std::to_string(threads) + "/kernel=" + kernel;
      benchmark::RegisterBenchmark(name.c_str(), BM_Scaling, size_t{25000},
                                   threads, kernel)
          ->Iterations(1)
          ->Unit(benchmark::kMillisecond);
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
      "\n=== Table 2: varying input data sizes (Jaccard 0.85, "
      "prefix-filter-inline) ===\n");
  std::printf("%10s %8s %8s %18s %12s %12s %12s\n", "records", "threads",
              "kernel", "prefix input rows", "output", "time(ms)",
              "ssjoin(ms)");
  for (const auto& row : ssjoin::bench::Table2Rows()) {
    std::printf("%10zu %8zu %8s %18zu %12zu %12.1f %12.1f\n", row.records,
                row.threads, row.kernel.c_str(), row.ssjoin_input_rows,
                row.output_pairs, row.total_ms, row.ssjoin_ms);
  }
  {
    std::vector<ssjoin::bench::JsonRecord> recs;
    recs.reserve(ssjoin::bench::Table2Rows().size());
    for (const auto& row : ssjoin::bench::Table2Rows()) {
      recs.push_back(ssjoin::bench::JsonRecord()
                         .Int("records", row.records)
                         .Int("threads", row.threads)
                         .Str("kernel", row.kernel)
                         .Int("ssjoin_input_rows", row.ssjoin_input_rows)
                         .Int("output_pairs", row.output_pairs)
                         .Num("total_ms", row.total_ms)
                         .Num("ssjoin_ms", row.ssjoin_ms));
    }
    ssjoin::bench::WriteBenchJson("table2", recs);
  }
  return 0;
}
