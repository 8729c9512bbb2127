/// Tests for the MinHash-LSH approximate candidate tier (src/approx):
/// signature determinism, band tuning and its exact-fallback routing, the
/// subset-of-exact precision guarantee with bitwise-identical overlaps,
/// serial == parallel determinism, hybrid routing on synthetic frequency
/// skews, and the measured-recall gauge.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <utility>
#include <vector>

#include "approx/approx_ssjoin.h"
#include "approx/minhash.h"
#include "common/rng.h"
#include "core/cost_model.h"
#include "core/ssjoin.h"
#include "fuzz/oracles.h"
#include "obs/metrics.h"

namespace ssjoin::approx {
namespace {

struct Fixture {
  core::WeightVector weights;
  core::ElementOrder order;
  core::SetsRelation r;
  core::SetsRelation s;

  core::SSJoinContext Ctx() const { return {&weights, &order}; }
};

/// Random self-join-shaped fixture: moderately overlapping sets so the join
/// has a healthy number of true pairs to measure recall against.
Fixture RandomFixture(uint64_t seed, size_t universe, size_t r_groups,
                      size_t s_groups, bool unit_weights) {
  Rng rng(seed);
  Fixture f;
  f.weights.resize(universe);
  for (double& w : f.weights) {
    w = unit_weights ? 1.0 : 0.05 + rng.NextDouble() * 2.0;
  }
  f.order = core::ElementOrder::ByDecreasingWeight(f.weights);
  auto make_docs = [&](size_t n) {
    std::vector<std::vector<text::TokenId>> docs(n);
    for (auto& doc : docs) {
      size_t size = 2 + rng.Uniform(8);
      for (size_t i = 0; i < size; ++i) {
        doc.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
      }
    }
    return docs;
  };
  f.r = *core::BuildSetsRelation(make_docs(r_groups), f.weights);
  f.s = *core::BuildSetsRelation(make_docs(s_groups), f.weights);
  return f;
}

/// Builds a fixture from explicit docs with unit weights.
Fixture FixtureFromDocs(std::vector<std::vector<text::TokenId>> r_docs,
                        std::vector<std::vector<text::TokenId>> s_docs,
                        size_t universe) {
  Fixture f;
  f.weights.assign(universe, 1.0);
  f.order = core::ElementOrder::ByDecreasingWeight(f.weights);
  f.r = *core::BuildSetsRelation(std::move(r_docs), f.weights);
  f.s = *core::BuildSetsRelation(std::move(s_docs), f.weights);
  return f;
}

using PairKey = std::pair<core::GroupId, core::GroupId>;

std::set<PairKey> Keys(const std::vector<core::SSJoinPair>& pairs) {
  std::set<PairKey> keys;
  for (const auto& p : pairs) keys.insert({p.r, p.s});
  return keys;
}

/// Every pair in `approx` appears in `exact` with the same overlap bits.
void ExpectSubsetWithExactOverlaps(const std::vector<core::SSJoinPair>& approx,
                                   const std::vector<core::SSJoinPair>& exact) {
  std::map<PairKey, double> exact_overlap;
  for (const auto& p : exact) exact_overlap[{p.r, p.s}] = p.overlap;
  for (const auto& p : approx) {
    auto it = exact_overlap.find({p.r, p.s});
    ASSERT_NE(it, exact_overlap.end())
        << "approx emitted (" << p.r << ", " << p.s << ") not in exact result";
    EXPECT_EQ(p.overlap, it->second)
        << "overlap bits differ for (" << p.r << ", " << p.s << ")";
  }
}

// ---------------------------------------------------------------------------
// Signatures

TEST(MinHashTest, SignaturesAreDeterministicInSeed) {
  Fixture f = RandomFixture(11, 40, 50, 1, true);
  SignatureMatrix a = BuildSignatures(f.r.store, 32, 123, nullptr);
  SignatureMatrix b = BuildSignatures(f.r.store, 32, 123, nullptr);
  EXPECT_EQ(a.values, b.values);
  SignatureMatrix c = BuildSignatures(f.r.store, 32, 124, nullptr);
  EXPECT_NE(a.values, c.values);
}

TEST(MinHashTest, ParallelSignaturesMatchSerial) {
  Fixture f = RandomFixture(13, 60, 200, 1, true);
  SignatureMatrix serial = BuildSignatures(f.r.store, 48, 7, nullptr);
  exec::ExecContext ec;
  ec.num_threads = 4;
  ec.morsel_size = 16;
  SignatureMatrix parallel = BuildSignatures(f.r.store, 48, 7, &ec);
  EXPECT_EQ(serial.values, parallel.values);
}

TEST(MinHashTest, SignatureRowsDependOnlyOnElements) {
  // Two groups with the same element set must hash identically even when
  // they sit at different positions in different stores.
  Fixture a = FixtureFromDocs({{1, 5, 9}}, {{0}}, 16);
  Fixture b = FixtureFromDocs({{3, 3}, {9, 1, 5, 5}}, {{0}}, 16);
  SignatureMatrix sa = BuildSignatures(a.r.store, 16, 99, nullptr);
  SignatureMatrix sb = BuildSignatures(b.r.store, 16, 99, nullptr);
  auto ra = sa.row(0);
  auto rb = sb.row(1);
  EXPECT_TRUE(std::equal(ra.begin(), ra.end(), rb.begin(), rb.end()));
}

// ---------------------------------------------------------------------------
// Band tuning

TEST(TuneBandsTest, SmallInputTakesExactFloor) {
  Fixture f = RandomFixture(17, 30, 10, 10, true);
  ApproxParams params;  // exact_floor_pairs = 4096 > 10 * 10
  BandPlan plan =
      TuneBands(f.r, f.s, core::OverlapPredicate::Absolute(1.0), f.weights,
                params);
  EXPECT_FALSE(plan.use_lsh);
  EXPECT_EQ(plan.num_hashes(), 0u);
}

TEST(TuneBandsTest, LshPlanFitsBudgetAndFloorDisablesExact) {
  Fixture f = RandomFixture(19, 40, 40, 40, true);
  ApproxParams params;
  params.exact_floor_pairs = 0;
  BandPlan plan =
      TuneBands(f.r, f.s, core::OverlapPredicate::Absolute(1.0), f.weights,
                params);
  ASSERT_TRUE(plan.use_lsh) << plan.note;
  EXPECT_GE(plan.rows, 1u);
  EXPECT_GE(plan.bands, 1u);
  EXPECT_LE(plan.num_hashes(), kDefaultMaxHashes);
  EXPECT_GT(plan.t_min, 0.0);
}

TEST(TuneBandsTest, InfeasibleBudgetFallsBackToExact) {
  // Large sets push the universal resemblance floor 1/(|r|+|s|-1) so low
  // that no in-budget band count can bound the miss probability; the tuner
  // must route to the exact tier rather than silently miss the target.
  Rng rng(23);
  std::vector<std::vector<text::TokenId>> docs(4);
  for (auto& doc : docs) {
    for (size_t i = 0; i < 400; ++i) {
      doc.push_back(static_cast<text::TokenId>(rng.Uniform(2000)));
    }
  }
  Fixture f = FixtureFromDocs(docs, docs, 2000);
  ApproxParams params;
  params.exact_floor_pairs = 0;
  params.target_recall = 0.999;
  params.max_hashes = 16;  // tiny budget: certainly infeasible
  BandPlan plan =
      TuneBands(f.r, f.s, core::OverlapPredicate::Absolute(1.0), f.weights,
                params);
  EXPECT_FALSE(plan.use_lsh);
}

TEST(TuneBandsTest, HigherTargetRecallNeverCheapens) {
  Fixture f = RandomFixture(29, 50, 60, 60, true);
  ApproxParams lo, hi;
  lo.exact_floor_pairs = hi.exact_floor_pairs = 0;
  lo.target_recall = 0.8;
  hi.target_recall = 0.99;
  auto pred = core::OverlapPredicate::Absolute(1.0);
  BandPlan plo = TuneBands(f.r, f.s, pred, f.weights, lo);
  BandPlan phi = TuneBands(f.r, f.s, pred, f.weights, hi);
  ASSERT_TRUE(plo.use_lsh);
  ASSERT_TRUE(phi.use_lsh);
  EXPECT_GE(phi.num_hashes(), plo.num_hashes());
}

// ---------------------------------------------------------------------------
// ApproxSSJoin executor

TEST(ApproxSSJoinTest, ExactFloorPathMatchesExactExecutor) {
  Fixture f = RandomFixture(31, 40, 30, 30, false);
  auto pred = core::OverlapPredicate::TwoSidedNormalized(0.5);
  core::SSJoinContext ctx = f.Ctx();
  auto exact = core::ExecuteSSJoin(core::SSJoinAlgorithm::kInvertedIndex, f.r,
                                   f.s, pred, ctx);
  ASSERT_TRUE(exact.ok());
  ApproxParams params;  // 30 * 30 = 900 <= 4096: exact floor fires
  ApproxSSJoin join(params);
  core::SSJoinStats stats;
  auto approx = join.Execute(f.r, f.s, pred, ctx, &stats);
  ASSERT_TRUE(approx.ok()) << approx.status().ToString();
  EXPECT_EQ(Keys(*approx), Keys(*exact));
  ExpectSubsetWithExactOverlaps(*approx, *exact);
  EXPECT_EQ(stats.result_pairs, approx->size());
}

TEST(ApproxSSJoinTest, LshPathIsSubsetOfExactAboveTargetRecall) {
  for (uint64_t seed : {37u, 41u, 43u}) {
    Fixture f = RandomFixture(seed, 50, 80, 80, true);
    auto pred = core::OverlapPredicate::Absolute(2.0);
    core::SSJoinContext ctx = f.Ctx();
    std::vector<core::SSJoinPair> exact =
        fuzz::SSJoinOracle(f.r, f.s, f.weights, pred);
    ApproxParams params;
    params.exact_floor_pairs = 0;  // force LSH
    params.target_recall = 0.9;
    ApproxSSJoin join(params);
    auto approx = join.Execute(f.r, f.s, pred, ctx, nullptr);
    ASSERT_TRUE(approx.ok()) << approx.status().ToString();
    ExpectSubsetWithExactOverlaps(*approx, exact);
    ASSERT_FALSE(exact.empty());
    double recall = static_cast<double>(approx->size()) /
                    static_cast<double>(exact.size());
    EXPECT_GE(recall, params.target_recall)
        << "seed " << seed << ": " << approx->size() << "/" << exact.size();
  }
}

TEST(ApproxSSJoinTest, ParallelOutputIsBitIdenticalToSerial) {
  Fixture f = RandomFixture(47, 60, 100, 90, false);
  auto pred = core::OverlapPredicate::OneSidedNormalized(0.4);
  ApproxParams params;
  params.exact_floor_pairs = 0;
  ApproxSSJoin join(params);
  core::SSJoinStats serial_stats;
  auto serial = join.Execute(f.r, f.s, pred, f.Ctx(), &serial_stats);
  ASSERT_TRUE(serial.ok());
  for (size_t threads : {2u, 4u, 8u}) {
    for (size_t morsel : {1u, 7u, 64u}) {
      exec::ExecContext ec;
      ec.num_threads = threads;
      ec.morsel_size = morsel;
      core::SSJoinContext pctx = f.Ctx();
      pctx.exec = &ec;
      core::SSJoinStats parallel_stats;
      auto parallel = join.Execute(f.r, f.s, pred, pctx, &parallel_stats);
      ASSERT_TRUE(parallel.ok());
      ASSERT_EQ(serial->size(), parallel->size())
          << threads << " threads, morsel " << morsel;
      for (size_t i = 0; i < serial->size(); ++i) {
        EXPECT_EQ((*serial)[i].r, (*parallel)[i].r) << "pair " << i;
        EXPECT_EQ((*serial)[i].s, (*parallel)[i].s) << "pair " << i;
        EXPECT_EQ((*serial)[i].overlap, (*parallel)[i].overlap) << "pair " << i;
      }
      EXPECT_EQ(serial_stats.result_pairs, parallel_stats.result_pairs);
    }
  }
}

TEST(ApproxSSJoinTest, RejectsOutOfRangeTargetRecall) {
  Fixture f = RandomFixture(53, 20, 5, 5, true);
  auto pred = core::OverlapPredicate::Absolute(1.0);
  for (double bad : {0.0, -0.5, 1.5}) {
    ApproxParams params;
    params.target_recall = bad;
    ApproxSSJoin join(params);
    auto result = join.Execute(f.r, f.s, pred, f.Ctx(), nullptr);
    EXPECT_FALSE(result.ok()) << "target_recall " << bad;
  }
}

TEST(ApproxSSJoinTest, MeasuredRecallGaugeReflectsLshRun) {
  Fixture f = RandomFixture(59, 50, 70, 70, true);
  auto pred = core::OverlapPredicate::Absolute(2.0);
  ApproxParams params;
  params.exact_floor_pairs = 0;
  params.target_recall = 0.9;
  params.recall_sample = 70;  // re-check every R-group: the gauge is exact
  ApproxSSJoin join(params);
  auto approx = join.Execute(f.r, f.s, pred, f.Ctx(), nullptr);
  ASSERT_TRUE(approx.ok());
  int64_t ppm =
      obs::Registry::Global().GetGauge("approx.measured_recall_ppm")->value();
  EXPECT_GE(ppm, static_cast<int64_t>(params.target_recall * 1e6));
  EXPECT_LE(ppm, 1000000);
}

// ---------------------------------------------------------------------------
// Hybrid routing

TEST(HybridRoutingTest, FrequentTokenHeavyInputRoutesToApprox) {
  // Every group shares a handful of hot tokens: nearly all occurrences land
  // on tokens with frequency >= threshold.
  Rng rng(61);
  std::vector<std::vector<text::TokenId>> docs(60);
  for (auto& doc : docs) {
    doc = {0, 1, 2};  // hot tokens in every set
    doc.push_back(static_cast<text::TokenId>(3 + rng.Uniform(97)));
  }
  Fixture f = FixtureFromDocs(docs, docs, 100);
  core::HybridRoutingDecision d = core::ChooseHybridTier(
      f.r, f.s, core::OverlapPredicate::Absolute(1.0), f.Ctx());
  EXPECT_EQ(d.frequency_threshold, std::max<size_t>(core::kHybridMinFrequency,
                                                    (120 + 19) / 20));
  EXPECT_GE(d.frequent_token_share, core::kHybridShareCutoff);
  EXPECT_EQ(d.chosen, core::SSJoinAlgorithm::kApprox);
}

TEST(HybridRoutingTest, UniformDistinctTokensRouteToExact) {
  // Every token appears in exactly one set: no token is frequent, so all
  // the mass is infrequent and the exact tier wins.
  std::vector<std::vector<text::TokenId>> docs(40);
  text::TokenId next = 0;
  for (auto& doc : docs) {
    for (int i = 0; i < 4; ++i) doc.push_back(next++);
  }
  Fixture f = FixtureFromDocs(docs, {{0}}, 160);
  core::HybridRoutingDecision d = core::ChooseHybridTier(
      f.r, f.s, core::OverlapPredicate::Absolute(1.0), f.Ctx());
  EXPECT_LT(d.frequent_token_share, core::kHybridShareCutoff);
  EXPECT_EQ(d.chosen, core::SSJoinAlgorithm::kPrefixFilterInline);
}

TEST(HybridRoutingTest, DispatchResolvesAndStaysWithinExact) {
  // kHybrid through the approx-layer dispatch: the resolved algorithm must
  // match ChooseHybridTier, the output must be a subset of the exact result,
  // and recall must clear the target.
  for (uint64_t seed : {67u, 71u}) {
    Fixture f = RandomFixture(seed, 30, 70, 70, true);  // small universe: skewed
    auto pred = core::OverlapPredicate::Absolute(2.0);
    core::SSJoinContext ctx = f.Ctx();
    std::vector<core::SSJoinPair> exact =
        fuzz::SSJoinOracle(f.r, f.s, f.weights, pred);
    core::HybridRoutingDecision expected =
        core::ChooseHybridTier(f.r, f.s, pred, ctx);
    ApproxParams params;
    params.exact_floor_pairs = 0;
    params.target_recall = 0.9;
    core::SSJoinAlgorithm resolved;
    auto result =
        ExecuteSSJoin(core::SSJoinAlgorithm::kHybrid, f.r, f.s, pred, ctx,
                      params, nullptr, &resolved);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_EQ(resolved, expected.chosen);
    ExpectSubsetWithExactOverlaps(*result, exact);
    ASSERT_FALSE(exact.empty());
    double recall = static_cast<double>(result->size()) /
                    static_cast<double>(exact.size());
    EXPECT_GE(recall, params.target_recall) << "seed " << seed;
  }
}

TEST(HybridRoutingTest, ExactAlgorithmsDelegateUnchanged) {
  Fixture f = RandomFixture(73, 40, 40, 40, false);
  auto pred = core::OverlapPredicate::TwoSidedNormalized(0.6);
  core::SSJoinContext ctx = f.Ctx();
  ApproxParams params;
  for (core::SSJoinAlgorithm algorithm :
       {core::SSJoinAlgorithm::kBasic, core::SSJoinAlgorithm::kInvertedIndex,
        core::SSJoinAlgorithm::kPrefixFilterInline}) {
    auto direct = core::ExecuteSSJoin(algorithm, f.r, f.s, pred, ctx);
    ASSERT_TRUE(direct.ok());
    core::SSJoinAlgorithm resolved;
    auto routed =
        ExecuteSSJoin(algorithm, f.r, f.s, pred, ctx, params, nullptr,
                      &resolved);
    ASSERT_TRUE(routed.ok());
    EXPECT_EQ(resolved, algorithm);
    ASSERT_EQ(direct->size(), routed->size());
    for (size_t i = 0; i < direct->size(); ++i) {
      EXPECT_EQ((*direct)[i].r, (*routed)[i].r);
      EXPECT_EQ((*direct)[i].s, (*routed)[i].s);
      EXPECT_EQ((*direct)[i].overlap, (*routed)[i].overlap);
    }
  }
}

}  // namespace
}  // namespace ssjoin::approx
