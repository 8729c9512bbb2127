/// Ablation for §5's conclusion and §7's future work: "the choice of
/// physical implementation of the SSJoin operator must be cost-based".
/// Runs the Jaccard join across thresholds with (a) basic fixed, (b)
/// prefix-filter-inline fixed, and (c) the cost model choosing, and reports
/// whether the model's choice tracks the faster plan.

#include <benchmark/benchmark.h>

#include <cstdio>

#include "bench/bench_common.h"
#include "common/timer.h"
#include "core/cost_model.h"
#include "simjoin/prep.h"
#include "simjoin/string_joins.h"
#include "text/tokenizer.h"

namespace ssjoin::bench {
namespace {

constexpr size_t kRecords = 10000;

struct OptRow {
  double threshold;
  double basic_ms;
  double prefix_ms;
  double costed_ms;
  const char* chosen;
};

std::vector<OptRow>& OptRows() {
  static auto* rows = new std::vector<OptRow>();
  return *rows;
}

double RunOnce(const std::vector<std::string>& data, double alpha,
               const simjoin::JoinExecution& exec) {
  Timer timer;
  auto result = simjoin::JaccardResemblanceJoin(data, data, alpha, {}, exec);
  result.status().AbortIfError();
  return timer.ElapsedMillis();
}

void BM_Optimizer(benchmark::State& state, double alpha) {
  const auto& data = AddressCorpus(kRecords, /*with_name=*/true);
  OptRow row{alpha, 0, 0, 0, "?"};
  for (auto _ : state) {
    row.basic_ms = RunOnce(data, alpha, MakeExec(core::SSJoinAlgorithm::kBasic));
    row.prefix_ms =
        RunOnce(data, alpha, MakeExec(core::SSJoinAlgorithm::kPrefixFilterInline));
    row.costed_ms = RunOnce(data, alpha, MakeExec(core::SSJoinAlgorithm::kBasic, /*use_cost_model=*/true));
  }
  // Ask the model directly which plan it picks, for the report.
  text::WordTokenizer tokenizer;
  simjoin::Prepared prep =
      simjoin::PrepareStrings(data, data, tokenizer, simjoin::WeightMode::kIdf)
          .MoveValueUnsafe();
  core::OverlapPredicate pred = core::OverlapPredicate::TwoSidedNormalized(alpha);
  row.chosen = core::SSJoinAlgorithmName(
      core::ChooseAlgorithm(prep.r, prep.s(), pred, prep.Context()));
  state.counters["basic_ms"] = row.basic_ms;
  state.counters["prefix_ms"] = row.prefix_ms;
  state.counters["costed_ms"] = row.costed_ms;
  OptRows().push_back(row);
}

void RegisterAll() {
  for (double alpha : {0.30, 0.50, 0.70, 0.90}) {
    std::string name = "optimizer/alpha=" + std::to_string(alpha).substr(0, 4);
    benchmark::RegisterBenchmark(name.c_str(), BM_Optimizer, alpha)
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
  std::printf("\n=== Ablation: cost-based implementation choice (Jaccard, 10K "
              "records) ===\n");
  std::printf("%9s %12s %12s %12s  %s\n", "threshold", "basic(ms)", "prefix(ms)",
              "costed(ms)", "model chose");
  for (const auto& row : ssjoin::bench::OptRows()) {
    std::printf("%9.2f %12.1f %12.1f %12.1f  %s\n", row.threshold, row.basic_ms,
                row.prefix_ms, row.costed_ms, row.chosen);
  }
  {
    std::vector<ssjoin::bench::JsonRecord> recs;
    for (const auto& row : ssjoin::bench::OptRows()) {
      recs.push_back(ssjoin::bench::JsonRecord()
                         .Num("threshold", row.threshold)
                         .Num("basic_ms", row.basic_ms)
                         .Num("prefix_ms", row.prefix_ms)
                         .Num("costed_ms", row.costed_ms)
                         .Str("chosen", row.chosen));
    }
    ssjoin::bench::WriteBenchJson("ablation_optimizer", recs);
  }
  return 0;
}
