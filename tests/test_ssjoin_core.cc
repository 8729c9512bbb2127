#include <gtest/gtest.h>

#include <algorithm>
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
