/// Top-K fuzzy matching against a reference table (§6: "composing the SSJoin
/// operator with the top-k operator"): the reference is BulkLoaded into a
/// MutableFuzzyIndex and sealed as one segment, then looked up.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <thread>

#include "index/mutable_index.h"
#include "lookup_corpus.h"
#include "sim/set_overlap.h"
#include "simjoin/string_joins.h"

namespace ssjoin::index {
namespace {

using Match = MutableFuzzyIndex::Match;

/// The reference table as one sealed segment; doc id = row index.
std::unique_ptr<MutableFuzzyIndex> BuildIndex(
    const std::vector<std::string>& master, const MatchOptions& match = {}) {
  MutableIndexOptions options;
  options.match = match;
  auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  EXPECT_TRUE(index->BulkLoad(records).ok());
  EXPECT_TRUE(index->Seal().ok());
  return index;
}

TEST(FuzzyMatchTest, ExactStringIsTopMatch) {
  auto master = Master(500, 3);
  auto index = BuildIndex(master);
  for (uint32_t i : {0u, 17u, 499u}) {
    auto matches = index->Lookup(master[i], 1);
    ASSERT_FALSE(matches.empty());
    EXPECT_EQ(matches[0].id, i);
    EXPECT_NEAR(matches[0].similarity, 1.0, 1e-9);
  }
}

TEST(FuzzyMatchTest, CorruptedQueriesFindSources) {
  auto master = Master(800, 5);
  MatchOptions options;
  options.alpha = 0.35;
  auto index = BuildIndex(master, options);
  Rng rng(7);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.0;  // light typo load (heavier edits destroy
                                 // whole word tokens and sink resemblance)
  size_t correct = 0;
  const size_t kQueries = 200;
  for (size_t i = 0; i < kQueries; ++i) {
    uint64_t src = rng.Uniform(master.size());
    std::string query = datagen::CorruptRecord(master[src], {}, errors, &rng);
    auto matches = index->Lookup(query, 1);
    if (!matches.empty() && matches[0].id == src) ++correct;
  }
  EXPECT_GT(correct, kQueries * 9 / 10);
}

TEST(FuzzyMatchTest, MatchesBatchJoinResults) {
  // Lookups against the index must agree with a batch resemblance join over
  // the same data for queries drawn from the reference itself (no unseen
  // tokens, so the weight models coincide).
  auto master = Master(300, 11);
  MatchOptions options;
  options.alpha = 0.6;
  auto index = BuildIndex(master, options);

  text::WordTokenizer tok;
  simjoin::Prepared prep =
      simjoin::PrepareStrings(master, master, tok, simjoin::WeightMode::kIdf)
          .MoveValueUnsafe();
  class VW final : public text::WeightProvider {
   public:
    explicit VW(const core::WeightVector& w) : w_(w) {}
    double Weight(text::TokenId id) const override { return w_[id]; }

   private:
    const core::WeightVector& w_;
  } weights(prep.weights);

  for (uint32_t q : {0u, 5u, 100u, 299u}) {
    auto matches = index->Lookup(master[q], master.size());
    std::vector<uint32_t> expected;
    for (uint32_t i = 0; i < master.size(); ++i) {
      double jr = sim::JaccardResemblance(prep.r.set(q), prep.s().set(i), weights);
      if (jr >= options.alpha - 1e-12) expected.push_back(i);
    }
    std::vector<uint32_t> got;
    for (const auto& m : matches) got.push_back(static_cast<uint32_t>(m.id));
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, expected) << "query " << q;
  }
}

TEST(FuzzyMatchTest, RespectsK) {
  auto master = Master(300, 13);
  MatchOptions options;
  options.alpha = 0.1;
  auto index = BuildIndex(master, options);
  auto matches = index->Lookup(master[0], 3);
  EXPECT_LE(matches.size(), 3u);
  // Descending similarity.
  for (size_t i = 1; i < matches.size(); ++i) {
    EXPECT_GE(matches[i - 1].similarity, matches[i].similarity);
  }
  EXPECT_TRUE(index->Lookup(master[0], 0).empty());
}

TEST(FuzzyMatchTest, UnseenTokensDiluteButDontCrash) {
  std::vector<std::string> master = {"alpha beta gamma", "delta epsilon"};
  MatchOptions options;
  options.alpha = 0.3;
  auto index = BuildIndex(master, options);
  // Half the query is vocabulary the index has never seen.
  auto matches = index->Lookup("alpha beta gamma zzz qqq www", 5);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].id, 0u);
  EXPECT_LT(matches[0].similarity, 1.0);  // unseen tokens dilute
  // A fully-unseen query matches nothing.
  EXPECT_TRUE(index->Lookup("totally unknown words", 5).empty());
}

TEST(FuzzyMatchTest, QGramMode) {
  std::vector<std::string> master = {"Microsoft Corp", "Oracle Corp", "Apple Inc"};
  MatchOptions options;
  options.word_tokens = false;
  options.q = 3;
  options.alpha = 0.5;
  auto index = BuildIndex(master, options);
  auto matches = index->Lookup("Mcrosoft Corp", 1);
  ASSERT_FALSE(matches.empty());
  EXPECT_EQ(matches[0].id, 0u);
}

TEST(FuzzyMatchTest, InvalidAlphaRejected) {
  for (double alpha : {0.0, 1.5}) {
    MutableIndexOptions options;
    options.match.alpha = alpha;
    auto index = MutableFuzzyIndex::Create(options);
    ASSERT_FALSE(index.ok());
    EXPECT_EQ(index.status().code(), StatusCode::kInvalidArgument);
  }
}

TEST(FuzzyMatchTest, ConcurrentLookupsMatchSerial) {
  // Lookups never take the writer lock; run them from many threads at
  // once (under TSan in the Debug CI job) and require the concurrent results
  // to be bit-identical to serial ones.
  auto master = Master(400, 17);
  MatchOptions options;
  options.alpha = 0.35;
  auto index = BuildIndex(master, options);

  Rng rng(23);
  datagen::ErrorModelOptions errors;
  errors.char_edits_mean = 1.5;
  std::vector<std::string> queries;
  for (size_t i = 0; i < 120; ++i) {
    size_t src = rng.Uniform(master.size());
    queries.push_back(datagen::CorruptRecord(master[src], {}, errors, &rng));
  }

  std::vector<std::vector<Match>> serial(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    serial[i] = index->Lookup(queries[i], 4);
  }

  const size_t kThreads = 4;
  std::vector<std::vector<std::vector<Match>>> concurrent(
      kThreads,
      std::vector<std::vector<Match>>(queries.size()));
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      // Every thread runs every query so lookups genuinely overlap.
      for (size_t i = 0; i < queries.size(); ++i) {
        concurrent[t][i] = index->Lookup(queries[i], 4);
      }
    });
  }
  for (auto& t : threads) t.join();

  for (size_t t = 0; t < kThreads; ++t) {
    for (size_t i = 0; i < queries.size(); ++i) {
      ASSERT_EQ(concurrent[t][i].size(), serial[i].size())
          << "thread " << t << " query " << i;
      for (size_t m = 0; m < serial[i].size(); ++m) {
        EXPECT_EQ(concurrent[t][i][m].id, serial[i][m].id);
        EXPECT_EQ(concurrent[t][i][m].similarity, serial[i][m].similarity);
      }
    }
  }
}

TEST(FuzzyMatchTest, EmptyReference) {
  auto index = BuildIndex({});
  EXPECT_TRUE(index->Lookup("anything", 5).empty());
  EXPECT_EQ(index->GetStats().live_docs, 0u);
}

}  // namespace
}  // namespace ssjoin::index
