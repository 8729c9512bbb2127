/// Microbenchmarks of the src/kernels hot loops: sorted-span intersection
/// (Overlap(s1, s2)) across span-length ratios, the batch join's verify
/// shape (one R-set against its candidates, merge vs the marked probe), and
/// the posting-probe candidate count (the prefix filter's equi-join), each
/// run at every available kernel tier so the per-tier speedup over the
/// scalar oracle is tracked in one table.
///
/// Expected shape: simd wins on balanced spans (the block compare retires
/// ~W^2 comparisons per load pair), gallop wins once one side is ~32x longer
/// (the auto heuristic's crossover), and every tier reports the same match
/// counts — the tiers are bit-identical, only their clocks differ. On the
/// verify shape the marked probe beats every merge tier: it reads only the
/// candidate, not R again, and stops once the candidate cannot pass.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/timer.h"
#include "kernels/kernels.h"

namespace ssjoin::bench {
namespace {

using kernels::Tier;

/// Strictly increasing span of n values with mean stride ~2.5 — the shape
/// of a real canonicalized token set (sets have no duplicates; candidate
/// pairs share a large token fraction). Starting at the same base with
/// independent strides gives two such spans ~40% overlap.
std::vector<uint32_t> MakeDenseSpan(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  uint32_t cur = static_cast<uint32_t>(rng.Uniform(3));
  for (size_t i = 0; i < n; ++i) {
    v.push_back(cur);
    cur += 1 + static_cast<uint32_t>(rng.Uniform(3));
  }
  return v;
}

/// n sorted unique values sampled across [0, range): the short side of a
/// skewed pair must span the long side's whole value range, otherwise the
/// scalar merge early-exits at the short side's max and no search strategy
/// can beat it.
std::vector<uint32_t> MakeSpreadSpan(size_t n, uint32_t range, uint64_t seed) {
  Rng rng(seed);
  std::vector<uint32_t> v;
  v.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    v.push_back(static_cast<uint32_t>(rng.Uniform(range)));
  }
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// An (a, b) pair at |a|:|b| skew `nb/na`, overlapping in value range.
std::pair<std::vector<uint32_t>, std::vector<uint32_t>> MakePair(size_t na,
                                                                 size_t nb) {
  if (na == nb) return {MakeDenseSpan(na, 1), MakeDenseSpan(nb, 2)};
  std::vector<uint32_t> big = MakeDenseSpan(std::max(na, nb), 1);
  uint32_t range = big.back() + 1;
  std::vector<uint32_t> small = MakeSpreadSpan(std::min(na, nb), range, 2);
  if (na < nb) return {std::move(small), std::move(big)};
  return {std::move(big), std::move(small)};
}

struct KernelRow {
  std::string op;
  std::string shape;
  std::string tier;
  double ns_per_call = 0.0;
  double elements_per_us = 0.0;
  size_t checksum = 0;  // matches/candidates: must agree across tiers
};

std::vector<KernelRow>& KernelRows() {
  static auto* rows = new std::vector<KernelRow>();
  return *rows;
}

/// Weighted intersection (the verify phase) at a fixed |a|:|b| ratio.
void BM_Intersect(benchmark::State& state, Tier tier, size_t na, size_t nb) {
  auto [a, b] = MakePair(na, nb);
  uint32_t max_token = 0;
  for (uint32_t t : a) max_token = std::max(max_token, t);
  for (uint32_t t : b) max_token = std::max(max_token, t);
  std::vector<double> weights(size_t{max_token} + 1, 1.0);
  size_t matches = 0;
  double sum = 0.0;
  for (auto _ : state) {
    sum += kernels::IntersectWeightedTier(tier, a, b, weights.data(), &matches);
  }
  benchmark::DoNotOptimize(sum);
  state.counters["matches"] = static_cast<double>(matches);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(na + nb));
}

/// Posting probe (the prefix filter's candidate equi-join): long posting
/// lists over a small group space, so most probes are duplicates filtered by
/// the seen-epoch table — the serving-index regime the AVX2 gather targets.
void BM_Probe(benchmark::State& state, Tier tier, size_t postings_len,
              size_t num_groups) {
  Rng rng(7);
  std::vector<uint32_t> postings;
  postings.reserve(postings_len);
  for (size_t i = 0; i < postings_len; ++i) {
    postings.push_back(static_cast<uint32_t>(rng.Uniform(num_groups)));
  }
  std::vector<uint32_t> seen(num_groups, 0);
  std::vector<uint32_t> out;
  out.reserve(num_groups);
  uint32_t epoch = 0;
  size_t candidates = 0;
  for (auto _ : state) {
    ++epoch;
    out.clear();
    candidates = kernels::ProbePostingsTier(tier, postings, epoch, seen.data(),
                                            &out);
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["candidates"] = static_cast<double>(candidates);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(postings_len));
}

/// The batch join's verify shape: one R-set against its candidate list.
/// Token ids and candidate sizes follow join_edit_8k's q-gram sets (~35
/// elements); most candidates share only the prefix token that made them
/// candidates, a few are near-duplicates of R.
struct VerifyShape {
  std::vector<uint32_t> r;
  std::vector<std::vector<uint32_t>> cands;
  std::vector<double> cand_weights;
  std::vector<double> weights;
  double alpha = 0.8;  // Overlap >= alpha * max(|r|, |s|), unit weights
  size_t elements = 0;  // sum of |r| + |s| over candidates (a merge's reads)
};

VerifyShape MakeVerifyShape(size_t r_size, size_t num_cands) {
  constexpr uint32_t kUniverse = 5000;
  VerifyShape v;
  Rng rng(35);
  v.r = MakeSpreadSpan(r_size, kUniverse, 36);
  v.weights.assign(kUniverse, 1.0);
  for (size_t c = 0; c < num_cands; ++c) {
    std::vector<uint32_t> s;
    const size_t n = 30 + rng.Uniform(11);
    const bool near_dup = rng.Bernoulli(0.05);
    for (uint32_t t : v.r) {
      // A near-duplicate keeps ~90% of R; the rest keep one or two tokens.
      if (near_dup ? !rng.Bernoulli(0.1) : rng.Bernoulli(0.04)) s.push_back(t);
    }
    if (s.empty()) s.push_back(v.r[rng.Uniform(v.r.size())]);
    while (s.size() < n) {
      s.push_back(static_cast<uint32_t>(rng.Uniform(kUniverse)));
    }
    std::sort(s.begin(), s.end());
    s.erase(std::unique(s.begin(), s.end()), s.end());
    v.elements += v.r.size() + s.size();
    v.cand_weights.push_back(static_cast<double>(s.size()));
    v.cands.push_back(std::move(s));
  }
  return v;
}

/// Candidates passing the shape's predicate, verified by the sorted merge
/// at `tier`: the inline verify loop before the marked probe.
size_t VerifyByMerge(Tier tier, const VerifyShape& v) {
  size_t passed = 0;
  for (const std::vector<uint32_t>& s : v.cands) {
    const double need =
        v.alpha * static_cast<double>(std::max(v.r.size(), s.size()));
    passed += kernels::IntersectWeightedTier(tier, v.r, s, v.weights.data(),
                                             nullptr) >= need;
  }
  return passed;
}

/// The same count through the marked probe with its early-exit bound.
size_t VerifyByMarks(kernels::MarkedSet& marks, const VerifyShape& v) {
  size_t passed = 0;
  marks.Mark(v.r);
  for (size_t c = 0; c < v.cands.size(); ++c) {
    const double need =
        v.alpha * static_cast<double>(std::max(v.r.size(), v.cands[c].size()));
    double overlap = 0.0;
    passed += marks.OverlapAtLeast(v.cands[c], v.cand_weights[c], need,
                                   &overlap) &&
              overlap >= need;
  }
  return passed;
}

/// Hand-timed measurement for the JSON table: google-benchmark's own timing
/// is used for the console output, but the summary rows want one comparable
/// number per (op, shape, tier) regardless of iteration policy.
void MeasureRows() {
  struct Shape {
    const char* name;
    size_t na, nb;
  };
  const Shape shapes[] = {
      {"1:1/256", 256, 256},     {"1:1/4096", 4096, 4096},
      {"1:4/1024", 1024, 4096},  {"1:32/128", 128, 4096},
      {"1:256/64", 64, 16384},
  };
  for (const Shape& sh : shapes) {
    auto [a, b] = MakePair(sh.na, sh.nb);
    uint32_t max_token = 0;
    for (uint32_t t : a) max_token = std::max(max_token, t);
    for (uint32_t t : b) max_token = std::max(max_token, t);
    std::vector<double> weights(size_t{max_token} + 1, 1.0);
    for (Tier tier : kernels::AvailableTiers()) {
      // Warm up, then time enough calls for a stable read.
      size_t matches = 0;
      double sum = 0.0;
      const size_t reps = 2000;
      for (size_t i = 0; i < 50; ++i) {
        sum += kernels::IntersectWeightedTier(tier, a, b, weights.data(),
                                              &matches);
      }
      Timer timer;
      for (size_t i = 0; i < reps; ++i) {
        sum += kernels::IntersectWeightedTier(tier, a, b, weights.data(),
                                              &matches);
      }
      double ns = timer.ElapsedMillis() * 1e6 / static_cast<double>(reps);
      benchmark::DoNotOptimize(sum);
      KernelRows().push_back(
          {"intersect", sh.name, kernels::TierName(tier), ns,
           ns > 0.0 ? static_cast<double>(sh.na + sh.nb) * 1e3 / ns : 0.0,
           matches});
    }
  }
  // Verify: one 35-element R-set against 600 candidates, per candidate.
  // The merge runs at every tier; the marked probe has one implementation
  // (tier "marked"), so its speedup column reads against the scalar merge.
  {
    const VerifyShape v = MakeVerifyShape(35, 600);
    const double n = static_cast<double>(v.cands.size());
    auto row = [&](const char* tier, double ns_per_round, size_t passed) {
      const double ns = ns_per_round / n;
      KernelRows().push_back(
          {"verify", "35x600", tier, ns,
           ns > 0.0 ? static_cast<double>(v.elements) / n * 1e3 / ns : 0.0,
           passed});
    };
    const size_t reps = 200;
    for (Tier tier : kernels::AvailableTiers()) {
      size_t passed = 0;
      for (size_t i = 0; i < 10; ++i) passed = VerifyByMerge(tier, v);
      Timer timer;
      for (size_t i = 0; i < reps; ++i) passed = VerifyByMerge(tier, v);
      row(kernels::TierName(tier),
          timer.ElapsedMillis() * 1e6 / static_cast<double>(reps), passed);
    }
    kernels::MarkedSet marks;
    marks.Bind(v.weights);
    size_t passed = 0;
    for (size_t i = 0; i < 10; ++i) passed = VerifyByMarks(marks, v);
    Timer timer;
    for (size_t i = 0; i < reps; ++i) passed = VerifyByMarks(marks, v);
    row("marked", timer.ElapsedMillis() * 1e6 / static_cast<double>(reps),
        passed);
    marks.Flush();
  }
  // Candidate-count probe: 64K postings over 4K groups (high duplicate
  // fraction, the regime the epoch filter is built for).
  {
    const size_t postings_len = 65536;
    const size_t num_groups = 4096;
    Rng rng(7);
    std::vector<uint32_t> postings;
    postings.reserve(postings_len);
    for (size_t i = 0; i < postings_len; ++i) {
      postings.push_back(static_cast<uint32_t>(rng.Uniform(num_groups)));
    }
    std::vector<uint32_t> seen(num_groups, 0);
    std::vector<uint32_t> out;
    out.reserve(num_groups);
    uint32_t epoch = 0;
    for (Tier tier : kernels::AvailableTiers()) {
      size_t candidates = 0;
      const size_t reps = 400;
      for (size_t i = 0; i < 20; ++i) {
        ++epoch;
        out.clear();
        candidates =
            kernels::ProbePostingsTier(tier, postings, epoch, seen.data(), &out);
      }
      Timer timer;
      for (size_t i = 0; i < reps; ++i) {
        ++epoch;
        out.clear();
        candidates =
            kernels::ProbePostingsTier(tier, postings, epoch, seen.data(), &out);
      }
      double ns = timer.ElapsedMillis() * 1e6 / static_cast<double>(reps);
      KernelRows().push_back(
          {"candidate-count", "64K/4Kgroups", kernels::TierName(tier), ns,
           ns > 0.0 ? static_cast<double>(postings_len) * 1e3 / ns : 0.0,
           candidates});
    }
  }
}

void RegisterAll() {
  struct Shape {
    const char* name;
    size_t na, nb;
  };
  const Shape shapes[] = {{"ratio=1:1", 4096, 4096},
                          {"ratio=1:32", 128, 4096},
                          {"ratio=1:256", 64, 16384}};
  for (const Shape& sh : shapes) {
    for (Tier tier : kernels::AvailableTiers()) {
      std::string name = std::string("intersect/") + sh.name + "/kernel=" +
                         kernels::TierName(tier);
      benchmark::RegisterBenchmark(name.c_str(), BM_Intersect, tier, sh.na,
                                   sh.nb);
    }
  }
  for (Tier tier : kernels::AvailableTiers()) {
    std::string name =
        std::string("probe/64K/kernel=") + kernels::TierName(tier);
    benchmark::RegisterBenchmark(name.c_str(), BM_Probe, tier, 65536, 4096);
  }
}

}  // namespace
}  // namespace ssjoin::bench

int main(int argc, char** argv) {
  ssjoin::bench::InitBenchFlags(&argc, argv);
  benchmark::Initialize(&argc, argv);
  ssjoin::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  ssjoin::bench::MeasureRows();

  // Per-tier table with speedup over the scalar oracle for each shape.
  std::printf("\n=== kernel tiers: ns/call (speedup vs scalar) ===\n");
  std::printf("%-16s %-14s %-8s %12s %14s %10s\n", "op", "shape", "tier",
              "ns/call", "elems/us", "speedup");
  double scalar_ns = 0.0;
  for (const auto& row : ssjoin::bench::KernelRows()) {
    if (row.tier == "scalar") scalar_ns = row.ns_per_call;
    double speedup = row.ns_per_call > 0.0 ? scalar_ns / row.ns_per_call : 0.0;
    std::printf("%-16s %-14s %-8s %12.1f %14.1f %9.2fx\n", row.op.c_str(),
                row.shape.c_str(), row.tier.c_str(), row.ns_per_call,
                row.elements_per_us, speedup);
  }

  {
    std::vector<ssjoin::bench::JsonRecord> recs;
    scalar_ns = 0.0;
    for (const auto& row : ssjoin::bench::KernelRows()) {
      if (row.tier == "scalar") scalar_ns = row.ns_per_call;
      recs.push_back(
          ssjoin::bench::JsonRecord()
              .Str("op", row.op)
              .Str("shape", row.shape)
              .Str("tier", row.tier)
              .Num("ns_per_call", row.ns_per_call)
              .Num("elements_per_us", row.elements_per_us)
              .Num("speedup_vs_scalar",
                   row.ns_per_call > 0.0 ? scalar_ns / row.ns_per_call : 0.0)
              .Int("checksum", row.checksum));
    }
    ssjoin::bench::WriteBenchJson("kernels", recs);
  }
  return 0;
}
