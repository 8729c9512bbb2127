#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <vector>

#include "common/rng.h"
#include "core/ssjoin.h"
#include "obs/metrics.h"
#include "simjoin/prep.h"
#include "text/tokenizer.h"

namespace ssjoin::core {
namespace {

constexpr SSJoinAlgorithm kAllAlgorithms[] = {
    SSJoinAlgorithm::kNaive, SSJoinAlgorithm::kBasic,
    SSJoinAlgorithm::kInvertedIndex, SSJoinAlgorithm::kPrefixFilter,
    SSJoinAlgorithm::kPrefixFilterInline};

/// Builds a small fixture: weights, order, and two relations over a random
/// universe.
struct Fixture {
  WeightVector weights;
  ElementOrder order;
  SetsRelation r;
  SetsRelation s;

  SSJoinContext Context() const { return {&weights, &order}; }
};

Fixture RandomFixture(uint64_t seed, size_t universe, size_t r_groups,
                      size_t s_groups, bool unit_weights) {
  Rng rng(seed);
  Fixture f;
  f.weights.resize(universe);
  for (double& w : f.weights) {
    w = unit_weights ? 1.0 : 0.05 + rng.NextDouble() * 2.0;
  }
  f.order = ElementOrder::ByDecreasingWeight(f.weights);
  auto make_docs = [&](size_t n) {
    std::vector<std::vector<text::TokenId>> docs(n);
    for (auto& doc : docs) {
      size_t size = 1 + rng.Uniform(10);
      for (size_t i = 0; i < size; ++i) {
        doc.push_back(static_cast<text::TokenId>(rng.Uniform(universe)));
      }
    }
    return docs;
  };
  f.r = *BuildSetsRelation(make_docs(r_groups), f.weights);
  f.s = *BuildSetsRelation(make_docs(s_groups), f.weights);
  return f;
}

std::vector<SSJoinPair> RunAlgo(SSJoinAlgorithm algorithm, const Fixture& f,
                            const OverlapPredicate& pred,
                            SSJoinStats* stats = nullptr) {
  auto result = ExecuteSSJoin(algorithm, f.r, f.s, pred, f.Context(), stats);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  std::vector<SSJoinPair> pairs = *result;
  SortPairs(&pairs);
  return pairs;
}

TEST(SSJoinCoreTest, PaperExample1) {
  // Figure 1 / Example 1: 3-gram sets of "Microsoft Corp" (12 grams) and
  // "Mcrosoft Corp" (11 grams) overlap in exactly 10 grams, so the pair is
  // returned under Overlap >= 10 and under the 80%-normalized predicates.
  text::QGramTokenizer tok(3);
  text::TokenDictionary dict;
  std::vector<std::vector<text::TokenId>> r_docs{
      dict.EncodeDocument(tok.Tokenize("Microsoft Corp"))};
  std::vector<std::vector<text::TokenId>> s_docs{
      dict.EncodeDocument(tok.Tokenize("Mcrosoft Corp"))};
  WeightVector weights(dict.num_elements(), 1.0);
  ElementOrder order = ElementOrder::ById(dict.num_elements());
  SetsRelation r = *BuildSetsRelation(r_docs, weights);
  SetsRelation s = *BuildSetsRelation(s_docs, weights);
  EXPECT_DOUBLE_EQ(r.norms[0], 12.0);
  EXPECT_DOUBLE_EQ(s.norms[0], 11.0);
  SSJoinContext ctx{&weights, &order};

  for (SSJoinAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(SSJoinAlgorithmName(algorithm));
    auto pairs = *ExecuteSSJoin(algorithm, r, s,
                                OverlapPredicate::Absolute(10.0), ctx, nullptr);
    ASSERT_EQ(pairs.size(), 1u);
    EXPECT_DOUBLE_EQ(pairs[0].overlap, 10.0);

    // 1-sided: 10 >= 0.8 * 12 = 9.6.
    pairs = *ExecuteSSJoin(algorithm, r, s,
                           OverlapPredicate::OneSidedNormalized(0.8), ctx, nullptr);
    EXPECT_EQ(pairs.size(), 1u);
    // 2-sided: 10 >= 0.8*12 and 0.8*11.
    pairs = *ExecuteSSJoin(algorithm, r, s,
                           OverlapPredicate::TwoSidedNormalized(0.8), ctx, nullptr);
    EXPECT_EQ(pairs.size(), 1u);
    // Absolute 11 rejects.
    pairs = *ExecuteSSJoin(algorithm, r, s, OverlapPredicate::Absolute(11.0), ctx,
                           nullptr);
    EXPECT_TRUE(pairs.empty());
  }
}

/// All implementations must agree pairwise with the naive reference, on both
/// weighted and unweighted inputs and across predicate shapes.
class SSJoinEquivalenceTest
    : public ::testing::TestWithParam<std::tuple<uint64_t, bool>> {};

TEST_P(SSJoinEquivalenceTest, AllAlgorithmsMatchNaive) {
  auto [seed, unit_weights] = GetParam();
  Fixture f = RandomFixture(seed, /*universe=*/30, /*r_groups=*/60,
                            /*s_groups=*/50, unit_weights);
  std::vector<OverlapPredicate> predicates;
  predicates.push_back(OverlapPredicate::Absolute(2.0));
  predicates.push_back(OverlapPredicate::Absolute(0.5));
  predicates.push_back(OverlapPredicate::OneSidedNormalized(0.6));
  predicates.push_back(OverlapPredicate::OneSidedNormalized(0.95));
  predicates.push_back(OverlapPredicate::TwoSidedNormalized(0.5));
  predicates.push_back(OverlapPredicate::TwoSidedNormalized(0.9));
  {
    OverlapPredicate mixed;
    mixed.And({1.0, 0.25, 0.0}).And({0.5, 0.0, 0.4});
    predicates.push_back(mixed);
  }

  for (size_t pi = 0; pi < predicates.size(); ++pi) {
    SCOPED_TRACE("predicate " + predicates[pi].ToString());
    auto expected = RunAlgo(SSJoinAlgorithm::kNaive, f, predicates[pi]);
    for (SSJoinAlgorithm algorithm :
         {SSJoinAlgorithm::kBasic, SSJoinAlgorithm::kInvertedIndex,
          SSJoinAlgorithm::kPrefixFilter, SSJoinAlgorithm::kPrefixFilterInline}) {
      SCOPED_TRACE(SSJoinAlgorithmName(algorithm));
      auto got = RunAlgo(algorithm, f, predicates[pi]);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].r, expected[i].r);
        EXPECT_EQ(got[i].s, expected[i].s);
        EXPECT_NEAR(got[i].overlap, expected[i].overlap, 1e-9);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    RandomizedSweep, SSJoinEquivalenceTest,
    ::testing::Combine(::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u),
                       ::testing::Bool()),
    [](const auto& info) {
      return "seed" + std::to_string(std::get<0>(info.param)) +
             (std::get<1>(info.param) ? "_unit" : "_weighted");
    });

TEST(SSJoinCoreTest, SelfJoinIncludesIdenticalGroups) {
  Fixture f = RandomFixture(11, 20, 30, 1, true);
  auto pairs = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, f.r, f.r,
                              OverlapPredicate::TwoSidedNormalized(1.0),
                              f.Context(), nullptr);
  // Every group matches itself at resemblance 1 (plus possible exact dupes).
  EXPECT_GE(pairs.size(), f.r.num_groups());
}

/// The symmetric predicates the triangle path takes: absolute, 2-sided
/// normalized and the edit-similarity linear form (k * norm + c per side).
std::vector<OverlapPredicate> SymmetricPredicates() {
  OverlapPredicate edit_linear;
  edit_linear.And({-1.25, 0.8, 0.0}).And({-1.25, 0.0, 0.8});
  return {OverlapPredicate::Absolute(2.0), OverlapPredicate::TwoSidedNormalized(0.5),
          edit_linear};
}

exec::ExecContext Threads(size_t threads, size_t morsel) {
  exec::ExecContext ec;
  ec.num_threads = threads;
  ec.morsel_size = morsel;
  return ec;
}

/// A self-join given one relation object as both sides takes the triangle
/// path; given a copy as S, the generic path. Both must return the same
/// pairs with bit-equal overlaps, the triangle's already sorted by (r, s).
TEST(TriangleSelfJoin, AliasedEqualsCopyAtEveryThreadCount) {
  for (uint64_t seed : {3u, 4u, 5u}) {
    for (bool unit_weights : {true, false}) {
      Fixture f = RandomFixture(seed, /*universe=*/25, /*r_groups=*/90,
                                /*s_groups=*/1, unit_weights);
      const SetsRelation copy = f.r;
      const std::vector<OverlapPredicate> predicates = SymmetricPredicates();
      for (size_t pi = 0; pi < predicates.size(); ++pi) {
        const OverlapPredicate& pred = predicates[pi];
        SCOPED_TRACE(pred.ToString() + (unit_weights ? " unit" : " weighted") +
                     " seed " + std::to_string(seed));
        ASSERT_TRUE(pred.IsSymmetric());
        auto want = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, f.r, copy,
                                   pred, f.Context(), nullptr);
        SortPairs(&want);
        ASSERT_FALSE(want.empty());
        for (size_t threads : {1, 2, 4}) {
          for (size_t morsel : {1, 7, 2048}) {
            SCOPED_TRACE(std::to_string(threads) + " threads, morsel " +
                         std::to_string(morsel));
            const exec::ExecContext ec = Threads(threads, morsel);
            SSJoinContext ctx = f.Context();
            ctx.exec = &ec;
            auto got = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, f.r, f.r,
                                      pred, ctx, nullptr);
            ASSERT_EQ(got.size(), want.size());
            for (size_t i = 0; i < got.size(); ++i) {
              ASSERT_EQ(got[i].r, want[i].r) << i;
              ASSERT_EQ(got[i].s, want[i].s) << i;
              ASSERT_EQ(got[i].overlap, want[i].overlap) << i;  // bit-equal
            }
            // Sorted by (r, s), strictly: no pair twice, so each group's
            // diagonal pair (g, g) appears at most once.
            for (size_t i = 1; i < got.size(); ++i) {
              ASSERT_TRUE(got[i - 1].r < got[i].r ||
                          (got[i - 1].r == got[i].r && got[i - 1].s < got[i].s))
                  << i;
            }
            // Under the normalized predicates every non-empty group passes
            // with itself: its diagonal pair is there.
            if (pi > 0) {
              size_t diagonal = 0;
              size_t non_empty = 0;
              for (const SSJoinPair& p : got) diagonal += p.r == p.s;
              for (GroupId g = 0; g < f.r.num_groups(); ++g) {
                non_empty += !f.r.set(g).empty();
              }
              EXPECT_EQ(diagonal, non_empty);
            }
          }
        }
      }
    }
  }
}

/// The triangle's candidates are exactly the unordered pairs {a, b} (a = b
/// included) whose prefixes share an element; the copy's generic path
/// counts each off-diagonal pair twice. Results and prefix counts match.
TEST(TriangleSelfJoin, CandidatePairsCountUnorderedPrefixPairs) {
  for (bool unit_weights : {true, false}) {
    Fixture f = RandomFixture(21, /*universe=*/25, /*r_groups=*/70,
                              /*s_groups=*/1, unit_weights);
    const SetsRelation copy = f.r;
    for (const OverlapPredicate& pred : SymmetricPredicates()) {
      SCOPED_TRACE(pred.ToString() + (unit_weights ? " unit" : " weighted"));
      PrefixFilteredRelation pref =
          PrefixFilterRelation(f.r, f.weights, f.order, pred, JoinSide::kR);
      std::vector<std::vector<text::TokenId>> sorted(f.r.num_groups());
      for (GroupId g = 0; g < f.r.num_groups(); ++g) {
        SetView p = pref.prefixes.view(g);
        sorted[g].assign(p.begin(), p.end());
        std::sort(sorted[g].begin(), sorted[g].end());
      }
      size_t unordered = 0;
      size_t diagonal = 0;
      for (GroupId a = 0; a < f.r.num_groups(); ++a) {
        diagonal += !sorted[a].empty();
        for (GroupId b = 0; b <= a; ++b) {
          std::vector<text::TokenId> common;
          std::set_intersection(sorted[a].begin(), sorted[a].end(), sorted[b].begin(),
                                sorted[b].end(), std::back_inserter(common));
          unordered += !common.empty();
        }
      }
      SSJoinStats tri;
      SSJoinStats generic;
      auto tri_pairs = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, f.r, f.r,
                                      pred, f.Context(), &tri);
      auto generic_pairs = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, f.r,
                                          copy, pred, f.Context(), &generic);
      EXPECT_EQ(tri.candidate_pairs, unordered);
      EXPECT_EQ(generic.candidate_pairs, 2 * unordered - diagonal);
      EXPECT_EQ(tri.result_pairs, generic.result_pairs);
      EXPECT_EQ(tri.result_pairs, tri_pairs.size());
      EXPECT_EQ(generic_pairs.size(), tri_pairs.size());
      EXPECT_EQ(tri.r_prefix_elements, generic.r_prefix_elements);
      EXPECT_EQ(tri.s_prefix_elements, generic.s_prefix_elements);
      EXPECT_LT(tri.equijoin_rows, generic.equijoin_rows);
    }
  }
}

/// An asymmetric predicate keeps an aliased self-join on the generic path:
/// the same pairs in the same order, and the same statistics, as a copy.
TEST(TriangleSelfJoin, OneSidedPredicateStaysOnGenericPath) {
  Fixture f = RandomFixture(8, /*universe=*/25, /*r_groups=*/70, /*s_groups=*/1,
                            /*unit_weights=*/false);
  const SetsRelation copy = f.r;
  OverlapPredicate mixed;
  mixed.And({1.0, 0.25, 0.0}).And({0.5, 0.0, 0.4});
  for (const OverlapPredicate& pred :
       {OverlapPredicate::OneSidedNormalized(0.6), mixed}) {
    SCOPED_TRACE(pred.ToString());
    ASSERT_FALSE(pred.IsSymmetric());
    const exec::ExecContext ec = Threads(2, 7);
    SSJoinContext ctx = f.Context();
    ctx.exec = &ec;
    SSJoinStats aliased_stats;
    SSJoinStats copy_stats;
    auto aliased = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, f.r, f.r,
                                  pred, ctx, &aliased_stats);
    auto copied = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, f.r, copy,
                                 pred, ctx, &copy_stats);
    ASSERT_EQ(aliased.size(), copied.size());
    for (size_t i = 0; i < aliased.size(); ++i) {
      EXPECT_EQ(aliased[i].r, copied[i].r) << i;
      EXPECT_EQ(aliased[i].s, copied[i].s) << i;
      EXPECT_EQ(aliased[i].overlap, copied[i].overlap) << i;
    }
    EXPECT_EQ(aliased_stats.equijoin_rows, copy_stats.equijoin_rows);
    EXPECT_EQ(aliased_stats.candidate_pairs, copy_stats.candidate_pairs);
    EXPECT_EQ(aliased_stats.result_pairs, copy_stats.result_pairs);
    EXPECT_EQ(aliased_stats.r_prefix_elements, copy_stats.r_prefix_elements);
    EXPECT_EQ(aliased_stats.s_prefix_elements, copy_stats.s_prefix_elements);
  }
}

TEST(SSJoinCoreTest, EmptyRelations) {
  WeightVector weights{1.0};
  ElementOrder order = ElementOrder::ById(1);
  SetsRelation empty;
  SetsRelation one = *BuildSetsRelation({{0}}, weights);
  SSJoinContext ctx{&weights, &order};
  for (SSJoinAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(SSJoinAlgorithmName(algorithm));
    EXPECT_TRUE(ExecuteSSJoin(algorithm, empty, one,
                              OverlapPredicate::Absolute(1.0), ctx, nullptr)
                    ->empty());
    EXPECT_TRUE(ExecuteSSJoin(algorithm, one, empty,
                              OverlapPredicate::Absolute(1.0), ctx, nullptr)
                    ->empty());
    EXPECT_TRUE(ExecuteSSJoin(algorithm, empty, empty,
                              OverlapPredicate::Absolute(1.0), ctx, nullptr)
                    ->empty());
  }
}

TEST(SSJoinCoreTest, PairsWithEmptyIntersectionNeverEmitted) {
  WeightVector weights{1.0, 1.0};
  ElementOrder order = ElementOrder::ById(2);
  SetsRelation r = *BuildSetsRelation({{0}}, weights);
  SetsRelation s = *BuildSetsRelation({{1}}, weights);
  SSJoinContext ctx{&weights, &order};
  OverlapPredicate trivial;  // required overlap 0
  for (SSJoinAlgorithm algorithm : kAllAlgorithms) {
    SCOPED_TRACE(SSJoinAlgorithmName(algorithm));
    EXPECT_TRUE(ExecuteSSJoin(algorithm, r, s, trivial, ctx, nullptr)->empty());
  }
}

TEST(SSJoinCoreTest, MissingWeightsRejected) {
  SetsRelation r;
  SSJoinContext ctx{nullptr, nullptr};
  auto result = ExecuteSSJoin(SSJoinAlgorithm::kBasic, r, r,
                              OverlapPredicate::Absolute(1.0), ctx, nullptr);
  EXPECT_FALSE(result.ok());
}

TEST(SSJoinCoreTest, PrefixAlgorithmsRequireOrder) {
  WeightVector weights{1.0};
  SetsRelation r = *BuildSetsRelation({{0}}, weights);
  SSJoinContext ctx{&weights, nullptr};
  EXPECT_FALSE(ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilter, r, r,
                             OverlapPredicate::Absolute(1.0), ctx, nullptr)
                   .ok());
  EXPECT_FALSE(ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilterInline, r, r,
                             OverlapPredicate::Absolute(1.0), ctx, nullptr)
                   .ok());
  // Non-prefix algorithms run fine without an order.
  EXPECT_TRUE(ExecuteSSJoin(SSJoinAlgorithm::kBasic, r, r,
                            OverlapPredicate::Absolute(1.0), ctx, nullptr)
                  .ok());
}

TEST(SSJoinCoreTest, WeightsTooSmallRejected) {
  WeightVector weights{1.0};
  SetsRelation r = *BuildSetsRelation({{0}}, weights);
  // Manually corrupt the relation to reference an uncovered element.
  r.store = *SetStore::FromParts({0, 2}, {0, 5});
  ElementOrder order = ElementOrder::ById(1);
  SSJoinContext ctx{&weights, &order};
  EXPECT_FALSE(ExecuteSSJoin(SSJoinAlgorithm::kBasic, r, r,
                             OverlapPredicate::Absolute(1.0), ctx, nullptr)
                   .ok());
}

TEST(SSJoinCoreTest, StatsReportPhasesAndCounts) {
  Fixture f = RandomFixture(77, 25, 40, 40, false);
  OverlapPredicate pred = OverlapPredicate::TwoSidedNormalized(0.7);

  SSJoinStats basic_stats;
  auto basic = RunAlgo(SSJoinAlgorithm::kBasic, f, pred, &basic_stats);
  EXPECT_EQ(basic_stats.result_pairs, basic.size());
  EXPECT_GT(basic_stats.equijoin_rows, 0u);
  EXPECT_GE(basic_stats.candidate_pairs, basic.size());
  EXPECT_GT(basic_stats.phases.Millis("SSJoin"), 0.0);

  SSJoinStats prefix_stats;
  auto prefix = RunAlgo(SSJoinAlgorithm::kPrefixFilterInline, f, pred, &prefix_stats);
  EXPECT_EQ(prefix_stats.result_pairs, prefix.size());
  EXPECT_GT(prefix_stats.r_prefix_elements, 0u);
  EXPECT_LE(prefix_stats.r_prefix_elements, f.r.total_elements());
  EXPECT_GE(prefix_stats.candidate_pairs, prefix.size());
  // The whole point: prefix candidates <= the basic equi-join's group pairs.
  EXPECT_LE(prefix_stats.candidate_pairs, basic_stats.candidate_pairs);
  ASSERT_GE(prefix_stats.phases.phases().size(), 2u);
  EXPECT_EQ(prefix_stats.phases.phases()[0].first, "Prefix-filter");
}

TEST(SSJoinCoreTest, HighThresholdPrunesGroups) {
  WeightVector weights{1.0, 1.0, 1.0};
  ElementOrder order = ElementOrder::ById(3);
  // One group with weight 2; absolute threshold 5 can never be met.
  SetsRelation r = *BuildSetsRelation({{0, 1}}, weights);
  SetsRelation s = *BuildSetsRelation({{0, 1, 2}}, weights);
  SSJoinContext ctx{&weights, &order};
  SSJoinStats stats;
  auto pairs = *ExecuteSSJoin(SSJoinAlgorithm::kPrefixFilter, r, s,
                              OverlapPredicate::Absolute(5.0), ctx, &stats);
  EXPECT_TRUE(pairs.empty());
  EXPECT_EQ(stats.pruned_groups_r, 1u);
}

TEST(SSJoinCoreTest, AlgorithmNames) {
  EXPECT_STREQ(SSJoinAlgorithmName(SSJoinAlgorithm::kNaive), "naive");
  EXPECT_STREQ(SSJoinAlgorithmName(SSJoinAlgorithm::kBasic), "basic");
  EXPECT_STREQ(SSJoinAlgorithmName(SSJoinAlgorithm::kPrefixFilterInline),
               "prefix-filter-inline");
  for (SSJoinAlgorithm a : kAllAlgorithms) {
    EXPECT_EQ(MakeExecutor(a)->name(), SSJoinAlgorithmName(a));
  }
}

TEST(SSJoinCoreTest, PublishAddsOnePhaseCountPerJoin) {
  // PublishSSJoinStats turns each recorded phase into a pair of registry
  // counters core.phase.<segment>.{us,count}; one join adds exactly 1 to
  // the count of each phase it ran.
  Fixture f = RandomFixture(13, /*universe=*/30, /*r_groups=*/25,
                            /*s_groups=*/25, /*unit_weights=*/false);
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* prefix_count = reg.GetCounter("core.phase.prefix_filter.count");
  obs::Counter* ssjoin_count = reg.GetCounter("core.phase.ssjoin.count");
  uint64_t prefix_before = prefix_count->value();
  uint64_t ssjoin_before = ssjoin_count->value();
  RunAlgo(SSJoinAlgorithm::kPrefixFilter, f,
          OverlapPredicate::TwoSidedNormalized(0.5));
  EXPECT_EQ(prefix_count->value() - prefix_before, 1u);
  EXPECT_EQ(ssjoin_count->value() - ssjoin_before, 1u);
}

}  // namespace
}  // namespace ssjoin::core
