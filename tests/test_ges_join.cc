#include <gtest/gtest.h>

#include <set>

#include "datagen/address_gen.h"
#include "simjoin/ges_join.h"

namespace ssjoin::simjoin {
namespace {

using PairSet = std::set<std::pair<uint32_t, uint32_t>>;

PairSet ToPairSet(const std::vector<MatchPair>& matches) {
  PairSet out;
  for (const MatchPair& m : matches) out.insert({m.r, m.s});
  return out;
}

std::vector<std::string> Corpus(size_t n, uint64_t seed) {
  datagen::AddressGenOptions opts;
  opts.num_records = n;
  opts.duplicate_fraction = 0.35;
  opts.seed = seed;
  return datagen::GenerateAddresses(opts).records;
}

TEST(GESJoinTest, MatchesBruteForce) {
  std::vector<std::string> data = Corpus(120, 17);
  for (double alpha : {0.85, 0.9}) {
    SCOPED_TRACE(alpha);
    SimJoinStats stats;
    auto matches = *GESJoin(data, data, alpha, {}, &stats);
    auto brute = *GESJoinBruteForce(data, data, alpha);
    EXPECT_EQ(ToPairSet(matches), ToPairSet(brute));
    // The exact UDF guarantees precision...
    for (const MatchPair& m : matches) EXPECT_GE(m.similarity, alpha - 1e-9);
    // ...and the SSJoin stage did dramatically fewer verifications than the
    // cross product.
    EXPECT_LT(stats.verifier_calls, data.size() * data.size() / 4);
  }
}

TEST(GESJoinTest, SelfPairsAlwaysFound) {
  std::vector<std::string> data = Corpus(80, 23);
  auto matches = *GESJoin(data, data, 0.95);
  PairSet pairs = ToPairSet(matches);
  for (uint32_t i = 0; i < data.size(); ++i) {
    EXPECT_TRUE(pairs.count({i, i})) << data[i];
  }
}

TEST(GESJoinTest, AbbreviationTolerance) {
  // §3.3's motivating behaviour: low-weight token variation ("Corp" vs
  // "Corporation") matters less than high-weight token identity.
  std::vector<std::string> r{"microsoft corp"};
  std::vector<std::string> s{"microsft corporation", "oracle corp"};
  // Pad the corpus so IDF has signal: many unrelated strings mentioning
  // corp/corporation make those tokens cheap.
  for (int i = 0; i < 20; ++i) {
    s.push_back("company" + std::to_string(i) + " corp");
    s.push_back("enterprise" + std::to_string(i) + " corporation");
  }
  GESJoinOptions opts;
  opts.token_sim_threshold = 0.5;
  auto matches = *GESJoin(r, s, 0.75, opts);
  PairSet pairs = ToPairSet(matches);
  EXPECT_TRUE(pairs.count({0, 0}));   // microsft corporation matches
  EXPECT_FALSE(pairs.count({0, 1}));  // oracle corp does not
}

TEST(GESJoinTest, InvalidAlphaRejected) {
  std::vector<std::string> data{"x"};
  EXPECT_FALSE(GESJoin(data, data, 1.5).ok());
}

TEST(GESJoinTest, EmptyInputs) {
  std::vector<std::string> empty;
  std::vector<std::string> one{"hello world"};
  EXPECT_TRUE(GESJoin(empty, one, 0.8)->empty());
  EXPECT_TRUE(GESJoin(one, empty, 0.8)->empty());
}

TEST(GESJoinBruteForceTest, CountsAllPairs) {
  std::vector<std::string> data = Corpus(30, 3);
  SimJoinStats stats;
  GESJoinBruteForce(data, data, 0.9, &stats).ValueOrDie();
  EXPECT_EQ(stats.verifier_calls, data.size() * data.size());
}

TEST(GESJoinTest, IdenticalAtOneTwoFourThreads) {
  // The word encoding runs on the Prep encoder's morsels; its ordered merge
  // keeps ids, weights and therefore every output bit-identical.
  std::vector<std::string> data = Corpus(200, 23);
  std::vector<MatchPair> base;
  SimJoinStats base_stats;
  for (size_t threads : {1, 2, 4}) {
    GESJoinOptions opts;
    opts.exec.exec.num_threads = threads;
    opts.exec.exec.morsel_size = threads == 1 ? 2048 : 11;
    SimJoinStats stats;
    auto got = GESJoin(data, data, 0.85, opts, &stats);
    ASSERT_TRUE(got.ok());
    if (threads == 1) {
      base = *got;
      base_stats = stats;
      ASSERT_GT(base.size(), data.size());
      continue;
    }
    ASSERT_EQ(got->size(), base.size()) << threads << " threads";
    for (size_t i = 0; i < base.size(); ++i) {
      EXPECT_EQ((*got)[i].r, base[i].r);
      EXPECT_EQ((*got)[i].s, base[i].s);
      EXPECT_EQ((*got)[i].similarity, base[i].similarity);
    }
    EXPECT_EQ(stats.ssjoin.candidate_pairs, base_stats.ssjoin.candidate_pairs);
  }
}

}  // namespace
}  // namespace ssjoin::simjoin
