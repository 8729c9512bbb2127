/// Recall/speed frontier of the MinHash-LSH approximate tier (src/approx)
/// against the exact inline prefix filter, on frequent-token-heavy data —
/// the skew regime the hybrid planner routes to the approximate tier.
///
/// Workload: a self-join of sets whose elements mix a small pool of hot
/// tokens (every set carries several) with a large cold universe, plus a
/// slice of near-duplicate pairs as the true matches. Unit weights make
/// every hot token prefix-eligible, so the exact prefix filter's candidate
/// equi-join grows quadratically in the hot-token frequency while LSH
/// bucket sizes stay bounded by signature collisions.
///
/// Rows: one exact baseline + one approx run per recall target
/// (0.8/0.9/0.95/0.99), each with its measured recall against the exact
/// result. Expected shape: approx total_ms well under the exact baseline at
/// every target, measured recall at or above target (the tuner budgets
/// per-pair misses at (1-target)/1024, so recall concentrates near 1).

#include <benchmark/benchmark.h>

#include <vector>

#include "approx/approx_ssjoin.h"
#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "core/cost_model.h"

namespace ssjoin::bench {
namespace {

constexpr size_t kSets = 8000;
constexpr size_t kHotPool = 30;       // tokens shared across the relation
constexpr size_t kHotPerSet = 7;
constexpr size_t kColdUniverse = 100000;
constexpr size_t kColdPerSet = 5;
constexpr double kDupFraction = 0.2;  // near-duplicate (true-match) share
constexpr double kAlpha = 0.75;       // two-sided normalized threshold

struct ApproxFixture {
  core::WeightVector weights;
  core::ElementOrder order;
  core::SetsRelation rel;

  core::SSJoinContext Ctx() const {
    core::SSJoinContext ctx{&weights, &order};
    ctx.exec = &BenchExec();
    return ctx;
  }
};

const ApproxFixture& Fixture() {
  static ApproxFixture* f = [] {
    auto* fx = new ApproxFixture();
    Rng rng(kBenchSeed);
    std::vector<std::vector<text::TokenId>> docs;
    docs.reserve(kSets);
    for (size_t i = 0; i < docs.capacity(); ++i) {
      if (!docs.empty() && rng.NextDouble() < kDupFraction) {
        // Near-duplicate of an earlier set: swap one cold token out.
        std::vector<text::TokenId> dup = docs[rng.Uniform(docs.size())];
        dup.back() = static_cast<text::TokenId>(kHotPool +
                                                rng.Uniform(kColdUniverse));
        docs.push_back(std::move(dup));
        continue;
      }
      std::vector<text::TokenId> doc;
      for (size_t h = 0; h < kHotPerSet; ++h) {
        doc.push_back(static_cast<text::TokenId>(rng.Uniform(kHotPool)));
      }
      for (size_t c = 0; c < kColdPerSet; ++c) {
        doc.push_back(
            static_cast<text::TokenId>(kHotPool + rng.Uniform(kColdUniverse)));
      }
      docs.push_back(std::move(doc));
    }
    fx->weights.assign(kHotPool + kColdUniverse, 1.0);
    fx->order = core::ElementOrder::ByDecreasingWeight(fx->weights);
    fx->rel = *core::BuildSetsRelation(std::move(docs), fx->weights);
    return fx;
  }();
  return *f;
}

size_t& ExactPairs() {
  static size_t exact_pairs = 0;
  return exact_pairs;
}

std::vector<JsonRecord>& ApproxRows() {
  static std::vector<JsonRecord>* rows = new std::vector<JsonRecord>();
  return *rows;
}

void AddRow(const std::string& label, double target, double total_ms,
            size_t result_pairs, const core::SSJoinStats& stats) {
  double recall = ExactPairs() > 0 ? static_cast<double>(result_pairs) /
                                         static_cast<double>(ExactPairs())
                                   : 1.0;
  JsonRecord rec;
  rec.Str("label", label)
      .Num("target_recall", target)
      .Num("total_ms", total_ms)
      .Int("result_pairs", result_pairs)
      .Int("exact_pairs", ExactPairs())
      .Num("measured_recall", recall)
      .Int("candidate_pairs", stats.candidate_pairs)
      .Int("equijoin_rows", stats.equijoin_rows);
  ApproxRows().push_back(rec);
}

void BM_Exact(benchmark::State& state) {
  const ApproxFixture& f = Fixture();
  auto pred = core::OverlapPredicate::TwoSidedNormalized(kAlpha);
  core::SSJoinStats stats;
  double total_ms = 0.0;
  size_t pairs = 0;
  for (auto _ : state) {
    stats = {};
    Timer timer;
    auto result = core::ExecuteSSJoin(core::SSJoinAlgorithm::kPrefixFilterInline,
                                      f.rel, f.rel, pred, f.Ctx(), &stats);
    result.status().AbortIfError();
    total_ms = timer.ElapsedMillis();
    pairs = result->size();
    benchmark::DoNotOptimize(pairs);
  }
  ExactPairs() = pairs;
  state.counters["result_pairs"] = static_cast<double>(pairs);
  state.counters["total_ms"] = total_ms;
  AddRow("prefix-filter-inline", 1.0, total_ms, pairs, stats);
}

void BM_Approx(benchmark::State& state, double target) {
  const ApproxFixture& f = Fixture();
  auto pred = core::OverlapPredicate::TwoSidedNormalized(kAlpha);
  approx::ApproxParams params;
  params.target_recall = target;
  core::SSJoinStats stats;
  double total_ms = 0.0;
  size_t pairs = 0;
  for (auto _ : state) {
    stats = {};
    Timer timer;
    auto result = approx::ExecuteSSJoin(core::SSJoinAlgorithm::kApprox, f.rel,
                                        f.rel, pred, f.Ctx(), params, &stats);
    result.status().AbortIfError();
    total_ms = timer.ElapsedMillis();
    pairs = result->size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["result_pairs"] = static_cast<double>(pairs);
  state.counters["total_ms"] = total_ms;
  AddRow("approx", target, total_ms, pairs, stats);
}

void BM_Hybrid(benchmark::State& state) {
  const ApproxFixture& f = Fixture();
  auto pred = core::OverlapPredicate::TwoSidedNormalized(kAlpha);
  approx::ApproxParams params;  // default target 0.9
  core::SSJoinStats stats;
  double total_ms = 0.0;
  size_t pairs = 0;
  core::SSJoinAlgorithm resolved = core::SSJoinAlgorithm::kHybrid;
  for (auto _ : state) {
    stats = {};
    Timer timer;
    auto result =
        approx::ExecuteSSJoin(core::SSJoinAlgorithm::kHybrid, f.rel, f.rel,
                              pred, f.Ctx(), params, &stats, &resolved);
    result.status().AbortIfError();
    total_ms = timer.ElapsedMillis();
    pairs = result->size();
    benchmark::DoNotOptimize(pairs);
  }
  state.counters["result_pairs"] = static_cast<double>(pairs);
  state.counters["total_ms"] = total_ms;
  AddRow(std::string("hybrid->") + core::SSJoinAlgorithmName(resolved),
         params.target_recall, total_ms, pairs, stats);
}

void RegisterAll() {
  // The exact baseline runs first: its result count is the recall
  // denominator for every approx row.
  benchmark::RegisterBenchmark("approx/exact_baseline", BM_Exact)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
  for (double target : {0.80, 0.90, 0.95, 0.99}) {
    std::string name =
        "approx/target=" + std::to_string(target).substr(0, 4);
    benchmark::RegisterBenchmark(name.c_str(), BM_Approx, target)
        ->Iterations(1)
        ->Unit(benchmark::kMillisecond);
  }
  benchmark::RegisterBenchmark("approx/hybrid", BM_Hybrid)
      ->Iterations(1)
      ->Unit(benchmark::kMillisecond);
}

}  // namespace
}  // namespace ssjoin::bench

int main(int argc, char** argv) {
  ssjoin::bench::InitBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  ssjoin::approx::RegisterApproxMetrics();
  ssjoin::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  ssjoin::bench::WriteBenchJson("approx", ssjoin::bench::ApproxRows());
  return 0;
}
