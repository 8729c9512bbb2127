/// Unit and differential tests for src/kernels — the single owner of the
/// SSJoin hot loops. The scalar tier is the oracle: every other tier must
/// reproduce its counts, matched-token sequences, probe orders and weighted
/// sums bit-for-bit, on every span shape a caller can produce.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"
#include "simjoin/string_joins.h"
#include "simjoin/types.h"

namespace ssjoin::kernels {
namespace {

/// Deterministic sorted multiset of length `n`: small strides force dense
/// overlap and duplicates, `salt` decorrelates the two sides.
std::vector<uint32_t> MakeSpan(size_t n, uint64_t salt) {
  Rng rng(0x5eed0000 + salt);
  std::vector<uint32_t> v;
  v.reserve(n);
  uint32_t cur = static_cast<uint32_t>(rng.Uniform(4));
  for (size_t i = 0; i < n; ++i) {
    v.push_back(cur);
    // ~1/3 duplicates, small strides otherwise.
    cur += static_cast<uint32_t>(rng.Uniform(3));
  }
  return v;
}

std::vector<double> MakeWeights(uint32_t max_token) {
  std::vector<double> w(size_t{max_token} + 1);
  for (size_t t = 0; t < w.size(); ++t) {
    w[t] = 0.1875 + static_cast<double>(t % 31) * 0.03125;
  }
  return w;
}

/// Asserts one (a, b) pair agrees with the scalar oracle on every kernel
/// entry point, for tier `t`.
void ExpectTierMatchesScalar(Tier t, std::span<const uint32_t> a,
                             std::span<const uint32_t> b,
                             const std::vector<double>& weights) {
  SCOPED_TRACE(std::string("tier=") + TierName(t) +
               " |a|=" + std::to_string(a.size()) +
               " |b|=" + std::to_string(b.size()));
  const size_t want_count = IntersectCountTier(Tier::kScalar, a, b);
  ASSERT_EQ(IntersectCountTier(t, a, b), want_count);

  size_t want_matches = 0;
  size_t got_matches = 0;
  const double want_sum = IntersectWeightedTier(Tier::kScalar, a, b,
                                                weights.data(), &want_matches);
  const double got_sum =
      IntersectWeightedTier(t, a, b, weights.data(), &got_matches);
  ASSERT_EQ(got_matches, want_matches);
  ASSERT_EQ(got_sum, want_sum);  // bitwise: same match order, same fp sum

  std::vector<uint32_t> want_tokens(std::min(a.size(), b.size()) + 1, 0xffu);
  std::vector<uint32_t> got_tokens(want_tokens);
  size_t wn = IntersectTokensTier(Tier::kScalar, a, b, want_tokens.data());
  size_t gn = IntersectTokensTier(t, a, b, got_tokens.data());
  ASSERT_EQ(gn, wn);
  ASSERT_EQ(got_tokens, want_tokens);

  std::vector<double> a_weights(a.size());
  for (size_t i = 0; i < a.size(); ++i) a_weights[i] = weights[a[i]];
  ASSERT_EQ(IntersectWeightedColsTier(t, a, a_weights, b),
            IntersectWeightedColsTier(Tier::kScalar, a, a_weights, b));
}

// ---------------------------------------------------------------------------
// Configuration surface
// ---------------------------------------------------------------------------

TEST(KernelConfig, ParseTierAcceptsAllNamesAndFailsLoudly) {
  EXPECT_EQ(*ParseTier("scalar"), Tier::kScalar);
  EXPECT_EQ(*ParseTier("gallop"), Tier::kGallop);
  EXPECT_EQ(*ParseTier("simd"), Tier::kSimd);
  EXPECT_EQ(*ParseTier("auto"), Tier::kAuto);
  Result<Tier> bad = ParseTier("avx512-please");
  ASSERT_FALSE(bad.ok());
  // The message must teach the valid spellings, like --algorithm does.
  EXPECT_NE(bad.status().message().find("scalar, gallop, simd, auto"),
            std::string::npos);
  EXPECT_FALSE(ParseTier("").ok());
  EXPECT_FALSE(ParseTier("SCALAR").ok());
}

TEST(KernelConfig, TierNamesRoundTrip) {
  for (Tier t : {Tier::kScalar, Tier::kGallop, Tier::kSimd, Tier::kAuto}) {
    if (!TierAvailable(t)) continue;
    EXPECT_EQ(*ParseTier(TierName(t)), t);
  }
}

TEST(KernelConfig, AvailableTiersStartsWithScalarOracle) {
  std::vector<Tier> tiers = AvailableTiers();
  ASSERT_FALSE(tiers.empty());
  EXPECT_EQ(tiers.front(), Tier::kScalar);
  for (Tier t : tiers) EXPECT_TRUE(TierAvailable(t));
}

TEST(KernelConfig, SetTierRoundTripsAndRejectsUnavailable) {
  Tier before = CurrentTier();
  for (Tier t : AvailableTiers()) {
    ASSERT_TRUE(SetTier(t).ok()) << TierName(t);
    EXPECT_EQ(CurrentTier(), t);
  }
  if (!TierAvailable(Tier::kSimd)) {
    Tier held = CurrentTier();
    EXPECT_FALSE(SetTier(Tier::kSimd).ok());
    EXPECT_EQ(CurrentTier(), held);  // failed set must not change the tier
  }
  ASSERT_TRUE(SetTier(before).ok());
}

// ---------------------------------------------------------------------------
// Exhaustive small lengths: every (|a|, |b|) in [0, 33]^2 covers every SIMD
// block/tail split for both the 4-wide SSE and 8-wide AVX2 paths.
// ---------------------------------------------------------------------------

TEST(KernelDifferential, AllLengthsZeroTo33BothSides) {
  std::vector<double> weights = MakeWeights(256);
  for (size_t na = 0; na <= 33; ++na) {
    for (size_t nb = 0; nb <= 33; ++nb) {
      std::vector<uint32_t> a = MakeSpan(na, na * 100 + nb);
      std::vector<uint32_t> b = MakeSpan(nb, na * 100 + nb + 7);
      for (Tier t : AvailableTiers()) {
        ExpectTierMatchesScalar(t, a, b, weights);
      }
    }
  }
}

TEST(KernelDifferential, AdversarialShapes) {
  std::vector<double> weights = MakeWeights(70001);
  struct Case {
    std::vector<uint32_t> a;
    std::vector<uint32_t> b;
  };
  std::vector<Case> cases = {
      {{}, {}},
      {{5}, {5}},
      {{5}, {6}},
      {{1, 2, 3}, {}},
      // All-equal multisets: min-multiplicity must hold in every tier.
      {{7, 7, 7, 7, 7, 7, 7, 7, 7}, {7, 7}},
      {{7, 7}, {7, 7, 7, 7, 7, 7, 7, 7, 7}},
      // Duplicate straddling a block boundary on the a side.
      {{1, 2, 3, 4, 5, 6, 7, 9, 9}, {5, 9}},
      // Disjoint ranges (zero matches through the block fast path).
      {{0, 1, 2, 3, 4, 5, 6, 7}, {100, 101, 102, 103, 104, 105, 106, 107}},
      // Interleaved, no matches (worst case for the compare mask).
      {{0, 2, 4, 6, 8, 10, 12, 14}, {1, 3, 5, 7, 9, 11, 13, 15}},
      // Values straddling 2^16 (catches 16-bit truncation in compares).
      {{65534, 65535, 65535, 65536, 65537}, {65535, 65536, 65536, 70000}},
      // Heavy skew (the gallop regime), duplicates on both sides.
      {MakeSpan(6, 1), MakeSpan(3000, 2)},
      {MakeSpan(3000, 3), MakeSpan(6, 4)},
      // Balanced long spans.
      {MakeSpan(1000, 5), MakeSpan(1000, 6)},
  };
  for (const Case& c : cases) {
    for (Tier t : AvailableTiers()) {
      ExpectTierMatchesScalar(t, c.a, c.b, weights);
    }
  }
}

/// Spans starting at every offset in [0, 8) of a shared buffer straddle the
/// 16- and 32-byte vector-load boundaries; the kernels use unaligned loads,
/// so results must not depend on alignment.
TEST(KernelDifferential, UnalignedSpansStraddleVectorBoundaries) {
  std::vector<double> weights = MakeWeights(512);
  std::vector<uint32_t> buf_a = MakeSpan(80, 11);
  std::vector<uint32_t> buf_b = MakeSpan(80, 13);
  for (size_t off_a = 0; off_a < 8; ++off_a) {
    for (size_t off_b = 0; off_b < 8; ++off_b) {
      std::span<const uint32_t> a(buf_a.data() + off_a, 64 + off_b);
      std::span<const uint32_t> b(buf_b.data() + off_b, 64 + off_a);
      for (Tier t : AvailableTiers()) {
        ExpectTierMatchesScalar(t, a, b, weights);
      }
    }
  }
}

TEST(KernelDifferential, WeightedWithUnitWeightsEqualsCount) {
  std::vector<double> ones(600, 1.0);
  for (size_t na : {0u, 1u, 7u, 33u, 200u}) {
    for (size_t nb : {0u, 3u, 8u, 31u, 190u}) {
      std::vector<uint32_t> a = MakeSpan(na, na + 17);
      std::vector<uint32_t> b = MakeSpan(nb, nb + 23);
      size_t count = IntersectCount(a, b);
      for (Tier t : AvailableTiers()) {
        EXPECT_EQ(IntersectWeightedTier(t, a, b, ones.data(), nullptr),
                  static_cast<double>(count))
            << TierName(t);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Posting probe and accumulate
// ---------------------------------------------------------------------------

TEST(KernelProbe, DedupsWithinEpochIdenticallyAcrossTiers) {
  // Postings with heavy duplication, in probe (not sorted) order.
  Rng rng(99);
  std::vector<uint32_t> postings;
  for (size_t i = 0; i < 500; ++i) {
    postings.push_back(static_cast<uint32_t>(rng.Uniform(64)));
  }
  std::vector<uint32_t> want_seen(64, 0);
  std::vector<uint32_t> want;
  size_t appended =
      ProbePostingsTier(Tier::kScalar, postings, 1, want_seen.data(), &want);
  ASSERT_EQ(appended, want.size());
  // Exactly the distinct gids, in first-sight order.
  std::vector<uint32_t> sorted_want(want);
  std::sort(sorted_want.begin(), sorted_want.end());
  EXPECT_TRUE(std::adjacent_find(sorted_want.begin(), sorted_want.end()) ==
              sorted_want.end());
  for (Tier t : AvailableTiers()) {
    std::vector<uint32_t> seen(64, 0);
    std::vector<uint32_t> got;
    ProbePostingsTier(t, postings, 1, seen.data(), &got);
    EXPECT_EQ(got, want) << TierName(t);
    // Second probe in the same epoch appends nothing.
    EXPECT_EQ(ProbePostingsTier(t, postings, 1, seen.data(), &got), 0u)
        << TierName(t);
    EXPECT_EQ(got, want) << TierName(t);
    // A new epoch sees everything again without clearing the table.
    std::vector<uint32_t> again;
    EXPECT_EQ(ProbePostingsTier(t, postings, 2, seen.data(), &again),
              want.size())
        << TierName(t);
    EXPECT_EQ(again, want) << TierName(t);
  }
}

TEST(KernelProbe, AccumulateZeroesOnFirstTouchAndSums) {
  std::vector<uint32_t> postings = {3, 1, 3, 3, 7, 1};
  std::vector<uint32_t> seen(8, 0);
  // Stale garbage in acc must be overwritten, not summed into.
  std::vector<double> acc(8, 1e9);
  std::vector<uint32_t> touched;
  AccumulatePostings(postings, 0.5, 1, seen.data(), acc.data(), &touched);
  AccumulatePostings({postings.data() + 1, 2}, 2.0, 1, seen.data(), acc.data(),
                     &touched);
  EXPECT_EQ(touched, (std::vector<uint32_t>{3, 1, 7}));
  EXPECT_EQ(acc[3], 0.5 * 3 + 2.0);
  EXPECT_EQ(acc[1], 0.5 * 2 + 2.0);
  EXPECT_EQ(acc[7], 0.5);
  EXPECT_EQ(acc[0], 1e9);
}

// ---------------------------------------------------------------------------
// Marked-set overlap: bit-equal to the scalar merge, prunes only below floor
// ---------------------------------------------------------------------------

/// A canonical set (sorted, duplicate-free), the input MarkedSet requires.
std::vector<uint32_t> MakeCanonical(size_t n, uint64_t salt) {
  std::vector<uint32_t> v = MakeSpan(n, salt);
  v.erase(std::unique(v.begin(), v.end()), v.end());
  return v;
}

/// IDF-like weights: log(N / df) over a skewed document frequency, floored
/// like text::IdfWeightFromFrequency.
std::vector<double> MakeIdfWeights(uint32_t max_token) {
  std::vector<double> w(size_t{max_token} + 1);
  for (size_t t = 0; t < w.size(); ++t) {
    w[t] = std::max(1e-6, std::log(5000.0 / static_cast<double>(1 + t % 53)));
  }
  return w;
}

/// Checks one (a, b, floor) against the scalar merge: an overlap returned is
/// bit-equal to it, and "below" is returned only when it is below `floor`.
/// Returns whether the call pruned.
bool ExpectMarkedMatchesScalar(MarkedSet& marks, std::span<const uint32_t> a,
                               std::span<const uint32_t> b,
                               const std::vector<double>& weights,
                               double wt_b, double floor) {
  SCOPED_TRACE("|a|=" + std::to_string(a.size()) +
               " |b|=" + std::to_string(b.size()) +
               " floor=" + std::to_string(floor));
  const double want =
      IntersectWeightedTier(Tier::kScalar, a, b, weights.data(), nullptr);
  double got = -1.0;
  if (marks.OverlapAtLeast(b, wt_b, floor, &got)) {
    EXPECT_EQ(got, want);  // bitwise
    return false;
  }
  EXPECT_EQ(got, -1.0) << "a pruned call must not write the overlap";
  EXPECT_LT(want, floor) << "pruned although the overlap reaches the floor";
  return true;
}

TEST(MarkedSet, MatchesScalarMergeAndPrunesOnlyBelowFloor) {
  for (bool idf : {false, true}) {
    std::vector<double> weights =
        idf ? MakeIdfWeights(256) : std::vector<double>(257, 1.0);
    MarkedSet marks;
    marks.Bind(weights);
    size_t pruned = 0;
    for (size_t na = 0; na <= 40; na += 3) {
      std::vector<uint32_t> a = MakeCanonical(na, na + 1000 * idf);
      marks.Mark(a);
      for (size_t nb = 0; nb <= 40; nb += 2) {
        std::vector<uint32_t> b = MakeCanonical(nb, na * 100 + nb + 7);
        // wt_b summed in descending order: any order must do.
        double wt_b = 0.0;
        for (auto it = b.rbegin(); it != b.rend(); ++it) wt_b += weights[*it];
        const double overlap = IntersectWeightedTier(
            Tier::kScalar, a, b, weights.data(), nullptr);
        for (double floor :
             {-1.0, 0.0, overlap, std::nextafter(overlap, -INFINITY),
              std::nextafter(overlap, INFINITY), overlap / 2,
              (overlap + wt_b) / 2, wt_b, wt_b + 1.0}) {
          pruned += ExpectMarkedMatchesScalar(marks, a, b, weights, wt_b,
                                              floor);
        }
        // A floor at or below the overlap never prunes (checked inside);
        // one above the whole of b always does.
        double got = 0.0;
        EXPECT_FALSE(marks.OverlapAtLeast(b, wt_b, wt_b + 1.0, &got));
      }
    }
    EXPECT_GT(pruned, 0u) << "the bound must prune something";
  }
}

TEST(MarkedSet, EmptyAndDisjointSets) {
  std::vector<double> weights = MakeIdfWeights(200);
  MarkedSet marks;
  marks.Bind(weights);
  const std::vector<uint32_t> low = {1, 2, 3, 4};
  const std::vector<uint32_t> high = {100, 150, 199};
  const std::vector<uint32_t> none;
  double wt_high = 0.0;
  for (uint32_t t : high) wt_high += weights[t];
  for (const auto& a : {none, low}) {
    marks.Mark(a);
    for (const auto& b : {none, high}) {
      const double wt_b = b.empty() ? 0.0 : wt_high;
      for (double floor : {-2.0, 0.0, 1e-300, 0.5, wt_b}) {
        ExpectMarkedMatchesScalar(marks, a, b, weights, wt_b, floor);
      }
      double got = -1.0;
      ASSERT_TRUE(marks.OverlapAtLeast(b, wt_b, 0.0, &got));
      EXPECT_EQ(got, 0.0);
    }
  }
}

TEST(MarkedSet, EpochWrapNeverCountsAStaleMark) {
  std::vector<double> weights(16, 1.0);
  MarkedSet marks;
  marks.Bind(weights);
  const std::vector<uint32_t> probe = {3, 5, 7};
  double got = 0.0;
  marks.Mark(std::vector<uint32_t>{3});  // stamps 3 with epoch 1
  ASSERT_TRUE(marks.OverlapAtLeast(probe, 3.0, 0.0, &got));
  EXPECT_EQ(got, 1.0);

  marks.SetEpochForTesting(std::numeric_limits<uint32_t>::max() - 1);
  marks.Mark(std::vector<uint32_t>{5});  // epoch 2^32 - 1
  ASSERT_TRUE(marks.OverlapAtLeast(probe, 3.0, 0.0, &got));
  EXPECT_EQ(got, 1.0) << "only 5 is marked; 3's stamp is stale";

  marks.Mark(std::vector<uint32_t>{7});  // wraps to epoch 1
  ASSERT_TRUE(marks.OverlapAtLeast(probe, 3.0, 0.0, &got));
  EXPECT_EQ(got, 1.0) << "3's epoch-1 stamp must not count after the wrap";
  ASSERT_TRUE(marks.OverlapAtLeast(probe, 3.0, 1.0, &got));
  EXPECT_EQ(got, 1.0);
}

TEST(MarkedSet, ExactWorkCountsAndFlush) {
  std::vector<double> weights(16, 1.0);
  MarkedSet marks;
  marks.Bind(weights);
  obs::Registry& reg = obs::Registry::Global();
  obs::Counter* calls = reg.GetCounter("kernels.intersect.calls");
  obs::Counter* elements = reg.GetCounter("kernels.intersect.elements");
  obs::Counter* pruned = reg.GetCounter("kernels.intersect.pruned");
  const uint64_t calls0 = calls->value();
  const uint64_t elements0 = elements->value();
  const uint64_t pruned0 = pruned->value();

  marks.Mark(std::vector<uint32_t>{1, 3, 5, 7});  // 4 elements
  double got = 0.0;
  // No floor: reads all 3 elements.
  ASSERT_TRUE(marks.OverlapAtLeast(std::vector<uint32_t>{1, 3, 5}, 3.0, 0.0,
                                   &got));
  EXPECT_EQ(got, 3.0);
  // Floor 3 against 5 unmarked elements: after the third miss the running
  // overlap 0 plus the 2 weight left is below 3, so 3 elements are read.
  EXPECT_FALSE(marks.OverlapAtLeast(std::vector<uint32_t>{2, 4, 6, 8, 10},
                                    5.0, 3.0, &got));
  // wt_b 1 below floor 2: pruned before reading anything.
  EXPECT_FALSE(
      marks.OverlapAtLeast(std::vector<uint32_t>{1}, 1.0, 2.0, &got));
  // Nothing reaches the shared counters before the flush.
  EXPECT_EQ(calls->value(), calls0);
  EXPECT_EQ(elements->value(), elements0);
  EXPECT_EQ(pruned->value(), pruned0);

  marks.Flush();
  EXPECT_EQ(calls->value() - calls0, 3u);
  EXPECT_EQ(elements->value() - elements0, 4u + 3u + 3u + 0u);
  EXPECT_EQ(pruned->value() - pruned0, 2u);
  marks.Flush();  // the flush zeroed the pending counts: no change
  EXPECT_EQ(calls->value() - calls0, 3u);
  EXPECT_EQ(elements->value() - elements0, 10u);
  EXPECT_EQ(pruned->value() - pruned0, 2u);
}

/// The shared counters a KernelTally flushes into, read together.
std::vector<uint64_t> KernelCounterValues() {
  std::vector<uint64_t> out;
  for (const char* name :
       {"kernels.intersect.calls", "kernels.intersect.elements", "kernels.probe.calls",
        "kernels.probe.rows", "kernels.accumulate.calls", "kernels.accumulate.rows"}) {
    out.push_back(obs::Registry::Global().GetCounter(name)->value());
  }
  return out;
}

std::vector<uint64_t> Delta(const std::vector<uint64_t>& after,
                            const std::vector<uint64_t>& before) {
  std::vector<uint64_t> out(after.size());
  for (size_t i = 0; i < out.size(); ++i) out[i] = after[i] - before[i];
  return out;
}

TEST(KernelTally, BatchedTotalsEqualPerCallTotals) {
  // The same calls once counted per call and once into a tally: nothing
  // reaches the shared counters before the flush, and the flush adds
  // exactly what per-call counting added.
  std::vector<double> weights(4096, 0.5);
  auto run = [&](KernelTally* tally) {
    std::vector<uint32_t> out(4096);
    std::vector<uint32_t> seen(4096, 0);
    std::vector<double> acc(4096, 0.0);
    std::vector<uint32_t> found;
    for (Tier t : AvailableTiers()) {
      for (size_t n : {0, 1, 7, 64, 300}) {
        const std::vector<uint32_t> a = MakeSpan(n, n);
        const std::vector<uint32_t> b = MakeSpan(2 * n + 3, n + 1);
        IntersectCountTier(t, a, b, tally);
        IntersectWeightedTier(t, a, b, weights.data(), nullptr, tally);
        IntersectTokensTier(t, a, b, out.data(), tally);
        ProbePostingsTier(t, b, static_cast<uint32_t>(n + 1), seen.data(), &found, tally);
        AccumulatePostings(a, 1.0, static_cast<uint32_t>(n + 1), seen.data(), acc.data(),
                           &found, tally);
      }
    }
  };
  const std::vector<uint64_t> start = KernelCounterValues();
  run(nullptr);
  const std::vector<uint64_t> per_call = Delta(KernelCounterValues(), start);
  ASSERT_GT(per_call[0], 0u);
  ASSERT_GT(per_call[3], 0u);

  KernelTally tally;
  const std::vector<uint64_t> before = KernelCounterValues();
  run(&tally);
  EXPECT_EQ(KernelCounterValues(), before) << "counted before the flush";
  tally.Flush();
  EXPECT_EQ(Delta(KernelCounterValues(), before), per_call);
  tally.Flush();  // the flush zeroed the pending counts
  EXPECT_EQ(Delta(KernelCounterValues(), before), per_call);
}

// ---------------------------------------------------------------------------
// End-to-end bit-identity: a full join must produce byte-identical results
// under every tier, serial and at 2 and 8 threads.
// ---------------------------------------------------------------------------

std::vector<std::string> JoinCorpus() {
  // Address-like strings with shared tokens so the join has dense overlap.
  const char* streets[] = {"main", "oak", "elm", "market", "hill"};
  const char* kinds[] = {"st", "ave", "blvd"};
  std::vector<std::string> out;
  Rng rng(4242);
  for (int i = 0; i < 120; ++i) {
    std::string s = std::to_string(rng.Uniform(90)) + " " +
                    streets[rng.Uniform(5)] + " " + kinds[rng.Uniform(3)];
    if (rng.Bernoulli(0.3)) s += " apt " + std::to_string(rng.Uniform(20));
    out.push_back(s);
  }
  return out;
}

TEST(KernelJoinIdentity, AllTiersAllThreadCountsBitIdentical) {
  std::vector<std::string> data = JoinCorpus();
  Tier before = CurrentTier();
  for (core::SSJoinAlgorithm alg :
       {core::SSJoinAlgorithm::kBasic, core::SSJoinAlgorithm::kInvertedIndex,
        core::SSJoinAlgorithm::kPrefixFilter,
        core::SSJoinAlgorithm::kPrefixFilterInline}) {
    // Per-algorithm scalar serial baseline; every tier and thread count must
    // reproduce it byte for byte (pairs, order, fp similarities).
    ASSERT_TRUE(SetTier(Tier::kScalar).ok());
    simjoin::JoinExecution base;
    base.algorithm = alg;
    auto want = *simjoin::JaccardResemblanceJoin(data, data, 0.7, {}, base);
    ASSERT_FALSE(want.empty());

    for (Tier t : AvailableTiers()) {
      ASSERT_TRUE(SetTier(t).ok());
      for (size_t threads : {size_t{1}, size_t{2}, size_t{8}}) {
        SCOPED_TRACE(std::string(core::SSJoinAlgorithmName(alg)) + " " +
                     TierName(t) + " threads=" + std::to_string(threads));
        simjoin::JoinExecution exec;
        exec.algorithm = alg;
        exec.exec.num_threads = threads;
        exec.exec.morsel_size = 16;  // force real work distribution
        auto got = *simjoin::JaccardResemblanceJoin(data, data, 0.7, {}, exec);
        ASSERT_EQ(got.size(), want.size());
        for (size_t i = 0; i < got.size(); ++i) {
          ASSERT_EQ(got[i].r, want[i].r);
          ASSERT_EQ(got[i].s, want[i].s);
          // Bitwise: the kernels fix the fp accumulation order.
          ASSERT_EQ(got[i].similarity, want[i].similarity);
        }
      }
    }
  }
  ASSERT_TRUE(SetTier(before).ok());
}

TEST(KernelJoinIdentity, AutoTierMatchesScalarOnApproxAlgorithm) {
  std::vector<std::string> data = JoinCorpus();
  Tier before = CurrentTier();
  simjoin::JoinExecution exec;
  exec.algorithm = core::SSJoinAlgorithm::kApprox;
  exec.approx.target_recall = 1.0;
  ASSERT_TRUE(SetTier(Tier::kScalar).ok());
  auto want = *simjoin::JaccardResemblanceJoin(data, data, 0.7, {}, exec);
  ASSERT_TRUE(SetTier(Tier::kAuto).ok());
  auto got = *simjoin::JaccardResemblanceJoin(data, data, 0.7, {}, exec);
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(got[i].r, want[i].r);
    ASSERT_EQ(got[i].s, want[i].s);
    ASSERT_EQ(got[i].similarity, want[i].similarity);
  }
  ASSERT_TRUE(SetTier(before).ok());
}

TEST(KernelTally, Figure8PlanCountsOneIntersectionPerCandidate) {
  // The Figure 8 plan verifies each candidate with one IntersectTokens
  // call, counted through per-morsel tallies: the totals are one call per
  // candidate, and the same at every thread count and morsel size.
  std::vector<std::string> data = JoinCorpus();
  std::vector<uint64_t> first;
  for (size_t threads : {1, 2, 4}) {
    simjoin::JoinExecution exec;
    exec.algorithm = core::SSJoinAlgorithm::kPrefixFilter;
    exec.exec.num_threads = threads;
    exec.exec.morsel_size = threads == 1 ? 2048 : 7;
    simjoin::SimJoinStats stats;
    const std::vector<uint64_t> before = KernelCounterValues();
    ASSERT_TRUE(simjoin::EditSimilarityJoin(data, data, 0.8, 2, exec, &stats).ok());
    const std::vector<uint64_t> delta = Delta(KernelCounterValues(), before);
    EXPECT_EQ(delta[0], stats.ssjoin.candidate_pairs) << threads << " threads";
    if (first.empty()) first = delta;
    EXPECT_EQ(delta, first) << threads << " threads";
  }
}

}  // namespace
}  // namespace ssjoin::kernels
