#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/rng.h"
#include "datagen/address_gen.h"
#include "sim/edit_distance.h"
#include "sim/set_overlap.h"
#include "simjoin/gravano.h"
#include "simjoin/string_joins.h"

namespace ssjoin::simjoin {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToPairSet(const std::vector<MatchPair>& matches) {
  PairSet out;
  for (const MatchPair& m : matches) out.insert({m.r, m.s});
  return out;
}

std::vector<std::string> SmallAddressCorpus(size_t n, uint64_t seed) {
  datagen::AddressGenOptions opts;
  opts.num_records = n;
  opts.duplicate_fraction = 0.35;
  opts.seed = seed;
  return datagen::GenerateAddresses(opts).records;
}

/// Adapter exposing a WeightVector as a WeightProvider for brute-force
/// similarity computation.
class VectorWeights final : public text::WeightProvider {
 public:
  explicit VectorWeights(const core::WeightVector& w) : w_(w) {}
  double Weight(text::TokenId id) const override { return w_[id]; }

 private:
  const core::WeightVector& w_;
};

class AlgorithmSweep : public ::testing::TestWithParam<core::SSJoinAlgorithm> {};

INSTANTIATE_TEST_SUITE_P(
    Algorithms, AlgorithmSweep,
    ::testing::Values(core::SSJoinAlgorithm::kBasic,
                      core::SSJoinAlgorithm::kInvertedIndex,
                      core::SSJoinAlgorithm::kPrefixFilter,
                      core::SSJoinAlgorithm::kPrefixFilterInline),
    [](const auto& info) {
      std::string name = core::SSJoinAlgorithmName(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

TEST_P(AlgorithmSweep, EditSimilarityJoinMatchesBruteForce) {
  std::vector<std::string> data = SmallAddressCorpus(150, 31);
  JoinExecution exec{GetParam(), false};
  for (double alpha : {0.8, 0.9}) {
    SCOPED_TRACE(alpha);
    SimJoinStats stats;
    auto matches = *EditSimilarityJoin(data, data, alpha, 3, exec, &stats);
    auto brute = *CrossProductEditSimilarityJoin(data, data, alpha);
    EXPECT_EQ(ToPairSet(matches), ToPairSet(brute));
    EXPECT_EQ(stats.result_pairs, matches.size());
    // Exactness of reported similarity.
    for (const MatchPair& m : matches) {
      EXPECT_NEAR(m.similarity, sim::EditSimilarity(data[m.r], data[m.s]), 1e-9);
      EXPECT_GE(m.similarity, alpha - 1e-9);
    }
  }
}

TEST_P(AlgorithmSweep, EditDistanceJoinMatchesBruteForce) {
  std::vector<std::string> data = SmallAddressCorpus(120, 77);
  JoinExecution exec{GetParam(), false};
  for (size_t max_distance : {1u, 3u}) {
    SCOPED_TRACE(max_distance);
    auto matches = *EditDistanceJoin(data, data, max_distance, 3, exec);
    PairSet expected;
    for (uint32_t i = 0; i < data.size(); ++i) {
      for (uint32_t j = 0; j < data.size(); ++j) {
        if (sim::EditDistanceAtMost(data[i], data[j], max_distance)) {
          expected.insert({i, j});
        }
      }
    }
    EXPECT_EQ(ToPairSet(matches), expected);
    for (const MatchPair& m : matches) {
      EXPECT_NEAR(-m.similarity,
                  static_cast<double>(sim::EditDistance(data[m.r], data[m.s])),
                  1e-12);
    }
  }
}

TEST_P(AlgorithmSweep, JaccardResemblanceJoinMatchesBruteForce) {
  std::vector<std::string> data = SmallAddressCorpus(200, 5);
  JoinExecution exec{GetParam(), false};
  SetJoinOptions opts;  // word tokens, IDF weights
  for (double alpha : {0.6, 0.85}) {
    SCOPED_TRACE(alpha);
    auto matches = *JaccardResemblanceJoin(data, data, alpha, opts, exec);

    // Independent brute force over the same Prep outputs.
    text::WordTokenizer tok;
    Prepared prep = PrepareStrings(data, data, tok, WeightMode::kIdf).MoveValueUnsafe();
    VectorWeights weights(prep.weights);
    PairSet expected;
    for (uint32_t i = 0; i < data.size(); ++i) {
      for (uint32_t j = 0; j < data.size(); ++j) {
        double jr = sim::JaccardResemblance(prep.r.set(i), prep.s().set(j), weights);
        if (jr >= alpha - 1e-12) expected.insert({i, j});
      }
    }
    EXPECT_EQ(ToPairSet(matches), expected);
  }
}

TEST_P(AlgorithmSweep, JaccardContainmentJoinMatchesBruteForce) {
  std::vector<std::string> data = SmallAddressCorpus(150, 9);
  JoinExecution exec{GetParam(), false};
  SetJoinOptions opts;
  double alpha = 0.7;
  auto matches = *JaccardContainmentJoin(data, data, alpha, opts, exec);
  text::WordTokenizer tok;
  Prepared prep = PrepareStrings(data, data, tok, WeightMode::kIdf).MoveValueUnsafe();
  VectorWeights weights(prep.weights);
  PairSet expected;
  for (uint32_t i = 0; i < data.size(); ++i) {
    for (uint32_t j = 0; j < data.size(); ++j) {
      if (prep.r.set(i).empty()) continue;  // zero-weight sets never emitted
      double jc = sim::JaccardContainment(prep.r.set(i), prep.s().set(j), weights);
      if (jc >= alpha - 1e-12) expected.insert({i, j});
    }
  }
  EXPECT_EQ(ToPairSet(matches), expected);
  for (const MatchPair& m : matches) {
    EXPECT_GE(m.similarity, alpha - 1e-9);
    EXPECT_LE(m.similarity, 1.0 + 1e-9);
  }
}

TEST(StringJoinsTest, JaccardWithQGramTokens) {
  std::vector<std::string> data = SmallAddressCorpus(100, 13);
  SetJoinOptions opts;
  opts.word_tokens = false;
  opts.q = 3;
  auto matches = *JaccardResemblanceJoin(data, data, 0.8, opts);
  // Every string resembles itself at 1.0.
  PairSet pairs = ToPairSet(matches);
  for (uint32_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(pairs.count({i, i})) << i;
  }
}

TEST_P(AlgorithmSweep, CosineJoinMatchesBruteForce) {
  std::vector<std::string> data = SmallAddressCorpus(150, 21);
  JoinExecution exec{GetParam(), false};
  double alpha = 0.8;
  auto matches = *CosineJoin(data, data, alpha, {}, exec);
  text::WordTokenizer tok;
  Prepared prep = PrepareStrings(data, data, tok, WeightMode::kIdfSquared).MoveValueUnsafe();
  VectorWeights weights(prep.weights);
  PairSet expected;
  for (uint32_t i = 0; i < data.size(); ++i) {
    for (uint32_t j = 0; j < data.size(); ++j) {
      if (prep.r.set(i).empty() || prep.s().set(j).empty()) continue;
      double cos = sim::CosineSimilarity(prep.r.set(i), prep.s().set(j), weights);
      if (cos >= alpha - 1e-12) expected.insert({i, j});
    }
  }
  EXPECT_EQ(ToPairSet(matches), expected);
}

TEST_P(AlgorithmSweep, HammingJoinMatchesBruteForce) {
  // Fixed-length-ish codes: zip-like strings.
  Rng rng(3);
  std::vector<std::string> data;
  for (int i = 0; i < 200; ++i) {
    std::string s;
    for (int d = 0; d < 7; ++d) s += static_cast<char>('0' + rng.Uniform(4));
    data.push_back(s);
  }
  JoinExecution exec{GetParam(), false};
  for (size_t max_distance : {1u, 2u}) {
    SCOPED_TRACE(max_distance);
    auto matches = *HammingJoin(data, data, max_distance, exec);
    PairSet expected;
    for (uint32_t i = 0; i < data.size(); ++i) {
      for (uint32_t j = 0; j < data.size(); ++j) {
        if (sim::HammingDistance(data[i], data[j]) <= max_distance) {
          expected.insert({i, j});
        }
      }
    }
    EXPECT_EQ(ToPairSet(matches), expected);
  }
}

TEST(StringJoinsTest, HammingJoinMixedLengths) {
  std::vector<std::string> data{"abcd", "abc", "abcde", "xbcd"};
  auto matches = *HammingJoin(data, data, 1);
  PairSet pairs = ToPairSet(matches);
  EXPECT_TRUE(pairs.count({0, 1}));   // tail position counts as 1 mismatch
  EXPECT_TRUE(pairs.count({0, 3}));   // 1 substitution
  EXPECT_FALSE(pairs.count({1, 2}));  // 2 tail positions
}

TEST(StringJoinsTest, SoundexJoinGroupsHomophones) {
  std::vector<std::string> names{"Robert", "Rupert", "Smith", "Smyth", "Jones"};
  auto matches = *SoundexJoin(names, names);
  PairSet pairs = ToPairSet(matches);
  EXPECT_TRUE(pairs.count({0, 1}));
  EXPECT_TRUE(pairs.count({2, 3}));
  EXPECT_FALSE(pairs.count({0, 2}));
  EXPECT_FALSE(pairs.count({4, 0}));
  for (uint32_t i = 0; i < names.size(); ++i) EXPECT_TRUE(pairs.count({i, i}));
}

TEST(StringJoinsTest, CostModelExecutionProducesSameResult) {
  std::vector<std::string> data = SmallAddressCorpus(150, 41);
  JoinExecution fixed{core::SSJoinAlgorithm::kPrefixFilterInline, false};
  JoinExecution costed{core::SSJoinAlgorithm::kBasic, /*use_cost_model=*/true};
  auto a = *JaccardResemblanceJoin(data, data, 0.8, {}, fixed);
  auto b = *JaccardResemblanceJoin(data, data, 0.8, {}, costed);
  EXPECT_EQ(ToPairSet(a), ToPairSet(b));
}

TEST(StringJoinsTest, InvalidArguments) {
  std::vector<std::string> data{"x"};
  EXPECT_FALSE(EditSimilarityJoin(data, data, 1.5, 3).ok());
  EXPECT_FALSE(EditSimilarityJoin(data, data, -0.1, 3).ok());
  EXPECT_FALSE(EditSimilarityJoin(data, data, 0.8, 0).ok());
  EXPECT_FALSE(EditDistanceJoin(data, data, 2, 0).ok());
}

TEST(StringJoinsTest, EmptyInputs) {
  std::vector<std::string> empty;
  std::vector<std::string> one{"hello"};
  EXPECT_TRUE(EditSimilarityJoin(empty, one, 0.8, 3)->empty());
  EXPECT_TRUE(JaccardResemblanceJoin(one, empty, 0.8)->empty());
  EXPECT_TRUE(SoundexJoin(empty, empty)->empty());
}

TEST(StringJoinsTest, VerifierCallsTrackSSJoinOutput) {
  std::vector<std::string> data = SmallAddressCorpus(150, 63);
  SimJoinStats stats;
  auto matches = *EditSimilarityJoin(data, data, 0.85, 3, {}, &stats);
  // Every SSJoin survivor goes through the UDF exactly once (Table 1's
  // SSJoin column); the final result can only be smaller.
  EXPECT_EQ(stats.verifier_calls, stats.ssjoin.result_pairs);
  EXPECT_GE(stats.verifier_calls, matches.size());
  // Phase breakdown is recorded (Figure 10's stacking).
  EXPECT_GT(stats.phases.Millis("Prep"), 0.0);
  EXPECT_GE(stats.phases.Millis("Prefix-filter"), 0.0);
  EXPECT_GT(stats.phases.TotalMillis(), 0.0);
}

// ---------------------------------------------------------------------------
// Morsel-parallel Prep: the ordered merge of morsel dictionaries makes ids,
// frequencies, weights, orders, relations and join outputs identical at
// every thread count and morsel size.
// ---------------------------------------------------------------------------

exec::ExecContext Threads(size_t threads, size_t morsel) {
  exec::ExecContext ec;
  ec.num_threads = threads;
  ec.morsel_size = morsel;
  return ec;
}

void ExpectSamePrep(const Prepared& a, const Prepared& b) {
  ASSERT_EQ(a.dict.num_elements(), b.dict.num_elements());
  EXPECT_EQ(a.dict.num_documents(), b.dict.num_documents());
  for (text::TokenId id = 0; id < a.dict.num_elements(); ++id) {
    ASSERT_EQ(a.dict.TokenOf(id), b.dict.TokenOf(id)) << id;
    ASSERT_EQ(a.dict.OrdinalOf(id), b.dict.OrdinalOf(id)) << id;
    ASSERT_EQ(a.dict.DocFrequency(id), b.dict.DocFrequency(id)) << id;
    ASSERT_EQ(a.dict.KeyHash(id), b.dict.KeyHash(id)) << id;
  }
  EXPECT_EQ(a.weights, b.weights);
  EXPECT_EQ(a.order.ranks(), b.order.ranks());
  EXPECT_TRUE(a.r.store == b.r.store);
  EXPECT_TRUE(a.s().store == b.s().store);
  EXPECT_EQ(a.r.set_weights, b.r.set_weights);
  EXPECT_EQ(a.s().set_weights, b.s().set_weights);
  EXPECT_EQ(a.r.norms, b.r.norms);
}

TEST(PrepThreads, IdenticalAtEveryThreadCount) {
  const std::vector<std::string> r = SmallAddressCorpus(300, 5);
  const std::vector<std::string> s = SmallAddressCorpus(200, 6);
  const text::QGramTokenizer qgrams(3);
  const text::QGramTokenizer padded(2, /*pad=*/true);
  const text::WordTokenizer words;
  for (const text::Tokenizer* tok :
       std::vector<const text::Tokenizer*>{&qgrams, &padded, &words}) {
    for (WeightMode mode : {WeightMode::kUnit, WeightMode::kIdf}) {
      SCOPED_TRACE(tok->Describe());
      auto serial = PrepareStrings(r, s, *tok, mode, Threads(1, 2048));
      ASSERT_TRUE(serial.ok());
      for (size_t threads : {1, 2, 4}) {
        for (size_t morsel : {1, 13, 64}) {
          SCOPED_TRACE(std::to_string(threads) + " threads, morsel " +
                       std::to_string(morsel));
          auto par = PrepareStrings(r, s, *tok, mode, Threads(threads, morsel));
          ASSERT_TRUE(par.ok());
          ExpectSamePrep(*serial, *par);
        }
      }
    }
  }
}

TEST(PrepThreads, SelfJoinPrepEqualsEncodingBothSides) {
  // Passing one vector as R and S encodes it once and counts it twice;
  // a copy as S encodes both sides. Everything downstream is the same.
  const std::vector<std::string> r = SmallAddressCorpus(250, 8);
  const std::vector<std::string> copy = r;
  const text::QGramTokenizer tok(3);
  for (WeightMode mode : {WeightMode::kUnit, WeightMode::kIdf, WeightMode::kIdfSquared}) {
    auto self = PrepareStrings(r, r, tok, mode, Threads(2, 16));
    auto both = PrepareStrings(r, copy, tok, mode, Threads(1, 2048));
    ASSERT_TRUE(self.ok() && both.ok());
    ExpectSamePrep(*self, *both);
    EXPECT_EQ(self->s().norms, both->s().norms);
    // The self-join stores no copy of R: S is R itself.
    EXPECT_TRUE(self->self_join);
    EXPECT_EQ(&self->s(), &self->r);
    EXPECT_EQ(self->s_rel.num_groups(), 0u);
    EXPECT_FALSE(both->self_join);
  }
}

bool SameMatches(const std::vector<MatchPair>& a, const std::vector<MatchPair>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].r != b[i].r || a[i].s != b[i].s || a[i].similarity != b[i].similarity) {
      return false;
    }
  }
  return true;
}

TEST(PrepThreads, JoinOutputsIdenticalAtOneTwoFourThreads) {
  const std::vector<std::string> data = SmallAddressCorpus(400, 77);
  SetJoinOptions idf_words;  // word tokens, IDF weights
  auto run = [&](size_t threads, auto&& join) {
    JoinExecution exec;
    exec.exec = Threads(threads, threads == 1 ? 2048 : 37);
    SimJoinStats stats;
    auto out = join(exec, &stats);
    EXPECT_TRUE(out.ok());
    return std::make_pair(*out, stats);
  };
  auto edit = [&](const JoinExecution& e, SimJoinStats* st) {
    return EditSimilarityJoin(data, data, 0.8, 3, e, st);
  };
  auto jaccard = [&](const JoinExecution& e, SimJoinStats* st) {
    return JaccardResemblanceJoin(data, data, 0.6, idf_words, e, st);
  };
  for (auto* name : {"edit", "jaccard"}) {
    SCOPED_TRACE(name);
    const bool is_edit = std::string(name) == "edit";
    auto base = is_edit ? run(1, edit) : run(1, jaccard);
    ASSERT_GT(base.first.size(), data.size());  // more than the diagonal
    for (size_t threads : {2, 4}) {
      auto got = is_edit ? run(threads, edit) : run(threads, jaccard);
      EXPECT_TRUE(SameMatches(got.first, base.first)) << threads << " threads";
      EXPECT_EQ(got.second.ssjoin.candidate_pairs, base.second.ssjoin.candidate_pairs);
      EXPECT_EQ(got.second.verifier_calls, base.second.verifier_calls);
    }
    // Prep records its sub-phases beside, not inside, "Prep".
    EXPECT_GT(base.second.phases.Millis("Prep"), 0.0);
    EXPECT_GE(base.second.phases.Millis("Prep.encode"), 0.0);
    EXPECT_NE(std::find_if(base.second.phases.phases().begin(),
                           base.second.phases.phases().end(),
                           [](const auto& p) { return p.first == "Prep.relation"; }),
              base.second.phases.phases().end());
  }
}

TEST(PrepThreads, SelfJoinEqualsJoinWithACopy) {
  // One vector as R and S takes the self-join path (no copy of R, the
  // inline prefix filter's triangle); a copy as S takes the generic path.
  // The matches, their similarities and the verifier calls are the same;
  // the self-join probes each unordered pair once.
  const std::vector<std::string> data = SmallAddressCorpus(400, 91);
  const std::vector<std::string> copy = data;
  SetJoinOptions idf_words;  // word tokens, IDF weights
  JoinExecution exec;
  exec.exec = Threads(2, 37);
  using JoinFn = std::function<Result<std::vector<MatchPair>>(
      const std::vector<std::string>&, SimJoinStats*)>;
  const std::pair<const char*, JoinFn> joins[] = {
      {"edit",
       [&](const std::vector<std::string>& s, SimJoinStats* st) {
         return EditSimilarityJoin(data, s, 0.8, 3, exec, st);
       }},
      {"jaccard",
       [&](const std::vector<std::string>& s, SimJoinStats* st) {
         return JaccardResemblanceJoin(data, s, 0.6, idf_words, exec, st);
       }},
  };
  for (const auto& [name, join] : joins) {
    SCOPED_TRACE(name);
    SimJoinStats self_stats;
    SimJoinStats copy_stats;
    auto self = join(data, &self_stats);
    auto other = join(copy, &copy_stats);
    ASSERT_TRUE(self.ok() && other.ok());
    SortMatches(&self.ValueOrDie());
    SortMatches(&other.ValueOrDie());
    EXPECT_TRUE(SameMatches(*self, *other));
    EXPECT_EQ(self_stats.verifier_calls, copy_stats.verifier_calls);
    EXPECT_EQ(self_stats.ssjoin.result_pairs, copy_stats.ssjoin.result_pairs);
    EXPECT_LT(self_stats.ssjoin.candidate_pairs, copy_stats.ssjoin.candidate_pairs);
  }
}

}  // namespace
}  // namespace ssjoin::simjoin
