#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "text/dictionary.h"
#include "text/weights.h"

namespace ssjoin::text {
namespace {

TEST(UnitWeightsTest, AllOnes) {
  UnitWeights w;
  EXPECT_DOUBLE_EQ(w.Weight(0), 1.0);
  EXPECT_DOUBLE_EQ(w.Weight(12345), 1.0);
  EXPECT_DOUBLE_EQ(w.SetWeight({1, 2, 3}), 3.0);
}

TEST(IdfWeightsTest, MatchesPaperFormula) {
  // §5: w(t) = log((|R| + |S|) / f_t). Encode 4 documents; the token "rare"
  // appears in 1, "mid" in 2, "common" in all 4.
  TokenDictionary dict;
  TokenId rare = dict.EncodeDocument({"rare", "mid", "common"})[0];
  TokenId mid = dict.Find("mid");
  TokenId common = dict.Find("common");
  dict.EncodeDocument({"mid", "common"});
  dict.EncodeDocument({"common"});
  dict.EncodeDocument({"common"});

  IdfWeights idf(dict);
  EXPECT_NEAR(idf.Weight(rare), std::log(4.0 / 1.0), 1e-12);
  EXPECT_NEAR(idf.Weight(mid), std::log(4.0 / 2.0), 1e-12);
  // f_t = |docs| would give log(1) = 0; floored to a small positive value
  // (the paper assumes strictly positive weights).
  EXPECT_GT(idf.Weight(common), 0.0);
  EXPECT_LT(idf.Weight(common), 1e-3);
}

TEST(IdfWeightsTest, RarerTokensWeighMore) {
  TokenDictionary dict;
  dict.EncodeDocument({"a", "b"});
  dict.EncodeDocument({"a"});
  dict.EncodeDocument({"a", "c"});
  IdfWeights idf(dict);
  EXPECT_GT(idf.Weight(dict.Find("b")), idf.Weight(dict.Find("a")));
  EXPECT_DOUBLE_EQ(idf.Weight(dict.Find("b")), idf.Weight(dict.Find("c")));
}

TEST(IdfWeightsTest, SnapshotIgnoresLaterGrowth) {
  TokenDictionary dict;
  dict.EncodeDocument({"x"});
  IdfWeights idf(dict);
  size_t before = idf.size();
  dict.EncodeDocument({"y", "z"});
  EXPECT_EQ(idf.size(), before);
}

TEST(IdfWeightsTest, ZeroDocFrequencyGetsFiniteFloor) {
  // Regression: a dictionary rebuilt through Restore can carry entries whose
  // doc_frequency is 0 (e.g. hand-edited or version-skewed snapshots).
  // log(n/0) = +inf passed the `idf > kMinWeight` clamp and poisoned every
  // set weight containing the element; it must floor like f_t = n does.
  std::vector<TokenDictionary::EntryData> entries = {
      {"alive", 0, 2},
      {"ghost", 0, 0},
  };
  auto dict = TokenDictionary::Restore(std::move(entries), 4);
  ASSERT_TRUE(dict.ok()) << dict.status().ToString();
  IdfWeights idf(*dict);
  EXPECT_NEAR(idf.Weight(0), std::log(4.0 / 2.0), 1e-12);
  EXPECT_TRUE(std::isfinite(idf.Weight(1)));
  EXPECT_GT(idf.Weight(1), 0.0);
  EXPECT_LT(idf.Weight(1), 1e-3);
  // The poisoned sum was the user-visible symptom: wt({alive, ghost}) must
  // stay finite and close to wt({alive}).
  EXPECT_TRUE(std::isfinite(idf.SetWeight({0, 1})));
  EXPECT_NEAR(idf.SetWeight({0, 1}), idf.Weight(0), 1e-3);
}

TEST(IdfWeightsTest, SetWeightSums) {
  TokenDictionary dict;
  auto ids = dict.EncodeDocument({"p", "q"});
  dict.EncodeDocument({"p"});
  IdfWeights idf(dict);
  EXPECT_NEAR(idf.SetWeight(ids), idf.Weight(ids[0]) + idf.Weight(ids[1]), 1e-12);
}

// ResemblanceAtLeast decides overlap >= alpha * uni exactly on sums of
// 2^-26-quantized weights; kQuantum is one quantum.
constexpr double kQuantum = 0x1p-26;

TEST(ResemblanceAtLeastTest, ExactEqualityAccepts) {
  // 0.375 = 3/8 exactly, so overlap = 3k and uni = 8k quanta is J == alpha.
  EXPECT_TRUE(ResemblanceAtLeast(3 * 12345 * kQuantum, 8 * 12345 * kQuantum, 0.375));
  EXPECT_TRUE(ResemblanceAtLeast(5.0, 10.0, 0.5));
  EXPECT_TRUE(ResemblanceAtLeast(0.0, 0.0, 0.35));  // empty union: J := 1
}

TEST(ResemblanceAtLeastTest, OneQuantumBelowRejects) {
  const double uni = 8 * 12345 * kQuantum;
  const double at = 3 * 12345 * kQuantum;
  EXPECT_FALSE(ResemblanceAtLeast(at - kQuantum, uni, 0.375));
  EXPECT_TRUE(ResemblanceAtLeast(at + kQuantum, uni, 0.375));
  EXPECT_FALSE(ResemblanceAtLeast(5.0 - kQuantum, 10.0, 0.5));
}

TEST(ResemblanceAtLeastTest, QuotientRoundingUpToAlphaStillRejects) {
  // alpha = 0.35 is m / 2^s exactly. Near 2^51 quanta (a union weight of
  // 2^25, inside the exact-sum range) some O = floor(alpha * U) has O / U
  // below alpha exactly, yet the double quotient rounds up to alpha: a
  // `jr >= alpha - 1e-12` band accepts it, the exact test must not.
  const double alpha = 0.35;
  int exponent = 0;
  const auto m = static_cast<uint64_t>(std::ldexp(std::frexp(alpha, &exponent), 53));
  const int s = 53 - exponent;
  bool found = false;
  for (uint64_t u = (uint64_t{1} << 51) - 1; u > (uint64_t{1} << 51) - 4096; --u) {
    const unsigned __int128 p = static_cast<unsigned __int128>(m) * u;
    const auto o = static_cast<uint64_t>(p >> s);
    const bool below = (static_cast<unsigned __int128>(o) << s) < p;
    const double overlap = std::ldexp(static_cast<double>(o), -26);
    const double uni = std::ldexp(static_cast<double>(u), -26);
    if (!below || overlap / uni < alpha) continue;
    found = true;
    EXPECT_FALSE(ResemblanceAtLeast(overlap, uni, alpha)) << "U=" << u;
    EXPECT_TRUE(ResemblanceAtLeast(overlap + kQuantum, uni, alpha)) << "U=" << u;
    break;
  }
  EXPECT_TRUE(found);
}

TEST(ResemblanceAtLeastTest, AlphaOneNeedsFullOverlap) {
  EXPECT_TRUE(ResemblanceAtLeast(7.25, 7.25, 1.0));
  EXPECT_FALSE(ResemblanceAtLeast(7.25 - kQuantum, 7.25, 1.0));
  const double big = std::ldexp(1.0, 25) - kQuantum;  // 2^51 - 1 quanta
  EXPECT_TRUE(ResemblanceAtLeast(big, big, 1.0));
  EXPECT_FALSE(ResemblanceAtLeast(big - kQuantum, big, 1.0));
}

}  // namespace
}  // namespace ssjoin::text
