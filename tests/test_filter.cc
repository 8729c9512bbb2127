/// Filter subsystem tests: attribute values and validation, predicate
/// canonicalization and match semantics, wire conversions, and the
/// filtered-lookup bit-identity contract — a filtered lookup must equal the
/// unfiltered lookup with unbounded k, post-filtered by Matches and
/// truncated to k — across a bulk-loaded single-segment index, the mutable
/// index (fresh, sealed, compacted and WAL-replayed), the lookup service at
/// several thread counts, and the sharded coordinator at N ∈ {1, 3}.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/payload.h"
#include "common/rng.h"
#include "filter/attr.h"
#include "filter/predicate.h"
#include "index/mutable_index.h"
#include "lookup_corpus.h"
#include "obs/metrics.h"
#include "serve/lookup_service.h"
#include "serve/wire.h"
#include "shard/sharded_index.h"

namespace ssjoin::filter {
namespace {

using index::MutableFuzzyIndex;
using index::MutableIndexOptions;

// ---------------------------------------------------------------------------
// AttrValue + validation

TEST(AttrValueTest, EqualityIsTypeSensitive) {
  EXPECT_EQ(AttrValue::String("1"), AttrValue::String("1"));
  EXPECT_EQ(AttrValue::Int64(1), AttrValue::Int64(1));
  EXPECT_NE(AttrValue::String("1"), AttrValue::Int64(1));
  EXPECT_NE(AttrValue::String("a"), AttrValue::String("b"));
  EXPECT_NE(AttrValue::Int64(1), AttrValue::Int64(2));
}

TEST(AttrValueTest, TotalOrderSortsTypeFirst) {
  std::vector<AttrValue> values = {AttrValue::Int64(2), AttrValue::String("b"),
                                   AttrValue::Int64(-1), AttrValue::String("a")};
  std::sort(values.begin(), values.end());
  EXPECT_EQ(values[0], AttrValue::String("a"));
  EXPECT_EQ(values[1], AttrValue::String("b"));
  EXPECT_EQ(values[2], AttrValue::Int64(-1));
  EXPECT_EQ(values[3], AttrValue::Int64(2));
}

TEST(AttrValidationTest, NameRules) {
  EXPECT_TRUE(ValidateAttrName("country").ok());
  EXPECT_TRUE(ValidateAttrName("a b").ok());       // interior space is fine
  EXPECT_TRUE(ValidateAttrName("x!y").ok());       // '!' only banned leading
  EXPECT_FALSE(ValidateAttrName("").ok());
  EXPECT_FALSE(ValidateAttrName("!country").ok()); // reserved for NOT-IN
  EXPECT_FALSE(ValidateAttrName(std::string("a\0b", 3)).ok());
  EXPECT_FALSE(ValidateAttrName("a\tb").ok());
  EXPECT_FALSE(ValidateAttrName("a\nb").ok());
  EXPECT_FALSE(ValidateAttrName("a\x7f b").ok());
  EXPECT_TRUE(ValidateAttrName(std::string(256, 'x')).ok());
  EXPECT_FALSE(ValidateAttrName(std::string(257, 'x')).ok());
}

TEST(AttrValidationTest, StringValueRules) {
  EXPECT_TRUE(ValidateAttrStringValue("").ok());     // empty value is legal
  EXPECT_TRUE(ValidateAttrStringValue("!lead").ok()); // '!' only reserved in names
  EXPECT_FALSE(ValidateAttrStringValue(std::string("a\0b", 3)).ok());
  EXPECT_FALSE(ValidateAttrStringValue("a\x01z").ok());
  EXPECT_FALSE(ValidateAttrStringValue("a\x7f").ok());
  EXPECT_TRUE(ValidateAttrValue(AttrValue::Int64(-7)).ok());
  EXPECT_FALSE(ValidateAttrValue(AttrValue::String("\x1f")).ok());
}

TEST(AttrSetTest, SetReplacesAndKeepsSorted) {
  AttrSet attrs;
  ASSERT_TRUE(attrs.Set("z", AttrValue::Int64(1)).ok());
  ASSERT_TRUE(attrs.Set("a", AttrValue::String("x")).ok());
  ASSERT_TRUE(attrs.Set("z", AttrValue::Int64(2)).ok());  // replace
  ASSERT_EQ(attrs.size(), 2u);
  EXPECT_EQ(attrs.entries()[0].first, "a");
  EXPECT_EQ(attrs.entries()[1].first, "z");
  ASSERT_NE(attrs.Find("z"), nullptr);
  EXPECT_EQ(*attrs.Find("z"), AttrValue::Int64(2));
  EXPECT_EQ(attrs.Find("missing"), nullptr);
}

TEST(AttrSetTest, SetValidates) {
  AttrSet attrs;
  EXPECT_FALSE(attrs.Set("", AttrValue::Int64(1)).ok());
  EXPECT_FALSE(attrs.Set("!neg", AttrValue::Int64(1)).ok());
  EXPECT_FALSE(attrs.Set(std::string("a\0", 2), AttrValue::Int64(1)).ok());
  EXPECT_FALSE(attrs.Set("k", AttrValue::String(std::string("\0", 1))).ok());
  EXPECT_TRUE(attrs.empty());
}

TEST(AttrSetTest, EncodeDecodeRoundTrip) {
  AttrSet attrs;
  ASSERT_TRUE(attrs.Set("country", AttrValue::String("DE")).ok());
  ASSERT_TRUE(attrs.Set("tier", AttrValue::Int64(-3)).ok());
  common::PayloadWriter w;
  attrs.EncodeTo(&w);
  common::PayloadReader r(w.buffer());
  AttrSet decoded;
  ASSERT_TRUE(AttrSet::DecodeFrom(&r, &decoded).ok());
  EXPECT_EQ(decoded, attrs);
}

TEST(AttrSetTest, DecodeRejectsSmuggledControlBytes) {
  // Hand-craft a payload whose name has a control byte: decode must refuse
  // it even though the upsert-time check never saw it.
  common::PayloadWriter w;
  w.U64(1);                        // count
  w.Str(std::string("a\x01", 2));  // name with control byte
  w.U8(1);                         // kInt64
  w.U64(0);
  common::PayloadReader r(w.buffer());
  AttrSet out;
  EXPECT_FALSE(AttrSet::DecodeFrom(&r, &out).ok());
}

// ---------------------------------------------------------------------------
// FilterPredicate

FilterConjunct In(std::string name, std::vector<AttrValue> values) {
  FilterConjunct c;
  c.name = std::move(name);
  c.values = std::move(values);
  return c;
}

FilterConjunct NotIn(std::string name, std::vector<AttrValue> values) {
  FilterConjunct c = In(std::move(name), std::move(values));
  c.negated = true;
  return c;
}

TEST(FilterPredicateTest, AddConjunctCanonicalizesValues) {
  FilterPredicate pred;
  ASSERT_TRUE(pred.AddConjunct(In("k", {AttrValue::Int64(3), AttrValue::Int64(1),
                                        AttrValue::Int64(3)}))
                  .ok());
  ASSERT_EQ(pred.conjuncts().size(), 1u);
  const auto& values = pred.conjuncts()[0].values;
  ASSERT_EQ(values.size(), 2u);  // deduplicated
  EXPECT_EQ(values[0], AttrValue::Int64(1));
  EXPECT_EQ(values[1], AttrValue::Int64(3));
}

TEST(FilterPredicateTest, RejectsEmptyValueSetAndDuplicates) {
  FilterPredicate pred;
  EXPECT_FALSE(pred.AddConjunct(In("k", {})).ok());
  ASSERT_TRUE(pred.AddConjunct(In("k", {AttrValue::Int64(1)})).ok());
  EXPECT_FALSE(pred.AddConjunct(In("k", {AttrValue::Int64(2)})).ok());
  // Same name with the other sign is a distinct conjunct.
  EXPECT_TRUE(pred.AddConjunct(NotIn("k", {AttrValue::Int64(9)})).ok());
  EXPECT_FALSE(pred.AddConjunct(NotIn("k", {AttrValue::Int64(8)})).ok());
  EXPECT_EQ(pred.conjuncts().size(), 2u);
}

TEST(FilterPredicateTest, RejectsInvalidNamesAndValues) {
  FilterPredicate pred;
  EXPECT_FALSE(pred.AddConjunct(In("!bad", {AttrValue::Int64(1)})).ok());
  EXPECT_FALSE(pred.AddConjunct(In("", {AttrValue::Int64(1)})).ok());
  EXPECT_FALSE(
      pred.AddConjunct(In("k", {AttrValue::String(std::string("\0", 1))})).ok());
}

TEST(FilterPredicateTest, MatchSemantics) {
  AttrSet de;
  ASSERT_TRUE(de.Set("country", AttrValue::String("DE")).ok());
  ASSERT_TRUE(de.Set("tier", AttrValue::Int64(1)).ok());
  AttrSet bare;  // no attributes at all

  FilterPredicate empty;
  EXPECT_TRUE(empty.Matches(de));
  EXPECT_TRUE(empty.Matches(bare));

  FilterPredicate in_de;
  ASSERT_TRUE(in_de.AddConjunct(In("country", {AttrValue::String("DE"),
                                               AttrValue::String("FR")}))
                  .ok());
  EXPECT_TRUE(in_de.Matches(de));
  EXPECT_FALSE(in_de.Matches(bare));  // positive conjunct needs presence

  // Type-sensitive: Int64(1) never matches String("1").
  FilterPredicate str_one;
  ASSERT_TRUE(str_one.AddConjunct(In("tier", {AttrValue::String("1")})).ok());
  EXPECT_FALSE(str_one.Matches(de));

  // Negated: absent attribute matches; present-but-excluded fails.
  FilterPredicate not_de;
  ASSERT_TRUE(
      not_de.AddConjunct(NotIn("country", {AttrValue::String("DE")})).ok());
  EXPECT_FALSE(not_de.Matches(de));
  EXPECT_TRUE(not_de.Matches(bare));

  // Conjunction: all conjuncts must hold.
  FilterPredicate both;
  ASSERT_TRUE(
      both.AddConjunct(In("country", {AttrValue::String("DE")})).ok());
  ASSERT_TRUE(both.AddConjunct(NotIn("tier", {AttrValue::Int64(1)})).ok());
  EXPECT_FALSE(both.Matches(de));  // tier=1 violates the NOT-IN
}

TEST(FilterPredicateTest, CanonicalJsonIsOrderIndependent) {
  FilterPredicate a;
  ASSERT_TRUE(a.AddConjunct(NotIn("status", {AttrValue::Int64(3)})).ok());
  ASSERT_TRUE(a.AddConjunct(In("country", {AttrValue::String("FR"),
                                           AttrValue::String("DE")}))
                  .ok());
  FilterPredicate b;
  ASSERT_TRUE(b.AddConjunct(In("country", {AttrValue::String("DE"),
                                           AttrValue::String("FR")}))
                  .ok());
  ASSERT_TRUE(b.AddConjunct(NotIn("status", {AttrValue::Int64(3)})).ok());

  EXPECT_EQ(a.CanonicalJson(), "{\"country\":[\"DE\",\"FR\"],\"!status\":[3]}");
  EXPECT_EQ(a.CanonicalJson(), b.CanonicalJson());
  EXPECT_EQ(a, b);
  EXPECT_EQ(FilterPredicate{}.CanonicalJson(), "{}");
}

// ---------------------------------------------------------------------------
// Random attribute sets for the filtered-lookup differentials below

std::vector<AttrSet> RandomAttrs(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<AttrSet> docs(n);
  const std::vector<std::string> countries = {"DE", "FR", "US", "JP"};
  for (auto& attrs : docs) {
    if (rng.Bernoulli(0.2)) continue;  // some docs carry no attributes
    if (rng.Bernoulli(0.8)) {
      EXPECT_TRUE(attrs.Set("country",
                            AttrValue::String(countries[rng.Uniform(4)]))
                      .ok());
    }
    if (rng.Bernoulli(0.6)) {
      EXPECT_TRUE(
          attrs.Set("tier", AttrValue::Int64(rng.UniformInt(0, 3))).ok());
    }
  }
  return docs;
}

// ---------------------------------------------------------------------------
// Wire conversions

serve::JsonValue ParseNested(const std::string& inner) {
  auto parsed = serve::ParseJsonRequest("{\"filter\": " + inner + "}");
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  return (*parsed)["filter"];
}

TEST(WireFilterTest, ScalarAndArrayConjuncts) {
  auto pred = serve::FilterFromWire(
      ParseNested("{\"country\": [\"DE\", \"FR\"], \"tier\": 2}"));
  ASSERT_TRUE(pred.ok()) << pred.status().message();
  EXPECT_EQ(pred->CanonicalJson(),
            "{\"country\":[\"DE\",\"FR\"],\"tier\":[2]}");

  AttrSet de2;
  ASSERT_TRUE(de2.Set("country", AttrValue::String("DE")).ok());
  ASSERT_TRUE(de2.Set("tier", AttrValue::Int64(2)).ok());
  EXPECT_TRUE(pred->Matches(de2));
}

TEST(WireFilterTest, BangPrefixMeansNotIn) {
  auto pred = serve::FilterFromWire(ParseNested("{\"!tier\": [1, 2]}"));
  ASSERT_TRUE(pred.ok());
  ASSERT_EQ(pred->conjuncts().size(), 1u);
  EXPECT_TRUE(pred->conjuncts()[0].negated);
  EXPECT_EQ(pred->conjuncts()[0].name, "tier");
}

TEST(WireFilterTest, RejectsNonAttributeScalars) {
  EXPECT_FALSE(serve::FilterFromWire(ParseNested("{\"k\": true}")).ok());
  EXPECT_FALSE(serve::FilterFromWire(ParseNested("{\"k\": null}")).ok());
  EXPECT_FALSE(serve::FilterFromWire(ParseNested("{\"k\": 1.5}")).ok());
  EXPECT_FALSE(serve::FilterFromWire(ParseNested("{\"k\": []}")).ok());
  // Duplicate (name, negated) across '!k' spelled twice is caught by the
  // JSON parser's unique-key rule; positive + negated coexist fine.
  EXPECT_TRUE(
      serve::FilterFromWire(ParseNested("{\"k\": 1, \"!k\": 2}")).ok());
}

TEST(WireFilterTest, IntegralBoundIsTwoToTheFiftyThree) {
  EXPECT_TRUE(
      serve::FilterFromWire(ParseNested("{\"k\": 9007199254740992}")).ok());
  // Above 2^53 the wire double cannot represent every integer exactly, so
  // anything past the bound is refused (1e300 is integral but too big).
  EXPECT_FALSE(serve::FilterFromWire(ParseNested("{\"k\": 1e300}")).ok());
  EXPECT_FALSE(
      serve::FilterFromWire(ParseNested("{\"k\": 18014398509481984}")).ok());
}

TEST(WireAttrsTest, ScalarsOnlyAndByteRules) {
  auto attrs = serve::AttrsFromWire(
      ParseNested("{\"country\": \"DE\", \"tier\": 3}"));
  ASSERT_TRUE(attrs.ok()) << attrs.status().message();
  ASSERT_NE(attrs->Find("tier"), nullptr);
  EXPECT_EQ(*attrs->Find("tier"), AttrValue::Int64(3));

  // Arrays are records-hold-one-value-per-attribute violations.
  EXPECT_FALSE(serve::AttrsFromWire(ParseNested("{\"k\": [1, 2]}")).ok());
  // Control bytes are rejected at the conversion (escaped in the JSON so the
  // parser passes them through to validation).
  EXPECT_FALSE(
      serve::AttrsFromWire(ParseNested("{\"k\": \"a\\u0001b\"}")).ok());
  EXPECT_FALSE(serve::AttrsFromWire(ParseNested("{\"!k\": 1}")).ok());
}

TEST(WireAttrsTest, AttrsToJsonRoundTrips) {
  AttrSet attrs;
  ASSERT_TRUE(attrs.Set("country", AttrValue::String("D\"E")).ok());
  ASSERT_TRUE(attrs.Set("tier", AttrValue::Int64(-2)).ok());
  std::string json = serve::AttrsToJson(attrs);
  auto back = serve::AttrsFromWire(ParseNested(json));
  ASSERT_TRUE(back.ok()) << back.status().message();
  EXPECT_EQ(*back, attrs);
}

// ---------------------------------------------------------------------------
// Filtered lookup: shared corpus helpers

/// The predicates every differential below runs: empty (≡ unfiltered), a
/// selective IN, a zero-match IN, a positive conjunct on an attribute no doc
/// carries, and a NOT-IN-only conjunction.
std::vector<FilterPredicate> EdgePredicates() {
  std::vector<FilterPredicate> preds;
  preds.emplace_back();  // empty

  FilterPredicate in_de;
  EXPECT_TRUE(in_de.AddConjunct(In("country", {AttrValue::String("DE"),
                                               AttrValue::String("FR")}))
                  .ok());
  preds.push_back(in_de);

  FilterPredicate zero;
  EXPECT_TRUE(
      zero.AddConjunct(In("country", {AttrValue::String("ZZ")})).ok());
  preds.push_back(zero);

  FilterPredicate ghost;
  EXPECT_TRUE(ghost.AddConjunct(In("ghost", {AttrValue::Int64(1)})).ok());
  preds.push_back(ghost);

  FilterPredicate not_only;
  EXPECT_TRUE(
      not_only.AddConjunct(NotIn("country", {AttrValue::String("DE")})).ok());
  EXPECT_TRUE(not_only.AddConjunct(NotIn("tier", {AttrValue::Int64(0)})).ok());
  preds.push_back(not_only);

  FilterPredicate mixed;
  EXPECT_TRUE(mixed.AddConjunct(In("country", {AttrValue::String("DE"),
                                               AttrValue::String("US")}))
                  .ok());
  EXPECT_TRUE(mixed.AddConjunct(NotIn("tier", {AttrValue::Int64(2)})).ok());
  preds.push_back(mixed);

  return preds;
}

// --- One sealed segment, bulk loaded with attributes ---

/// The reference table with per-row attributes as one sealed segment
/// (doc id = row index); `attrs` empty means no attributes at all.
std::unique_ptr<MutableFuzzyIndex> BuildSealed(
    const std::vector<std::string>& master, const std::vector<AttrSet>& attrs) {
  MutableIndexOptions options;
  options.match.alpha = 0.35;
  auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
  std::vector<std::pair<uint64_t, std::string>> records;
  for (size_t i = 0; i < master.size(); ++i) records.emplace_back(i, master[i]);
  EXPECT_TRUE(index->BulkLoad(records, attrs).ok());
  EXPECT_TRUE(index->Seal().ok());
  return index;
}

void ExpectSameMatches(const std::vector<MutableFuzzyIndex::Match>& got,
                       const std::vector<MutableFuzzyIndex::Match>& want,
                       const std::string& context) {
  ASSERT_EQ(got.size(), want.size()) << context;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
    // Bit-identical, not approximately equal.
    EXPECT_EQ(got[i].similarity, want[i].similarity) << context << " rank " << i;
  }
}

TEST(FuzzyMatchFilterTest, FilteredEqualsPostFilteredOracle) {
  auto master = Master(300, 101);
  auto queries = DirtyQueries(master, 50, 102);
  auto attrs = RandomAttrs(master.size(), 103);
  auto index = BuildSealed(master, attrs);
  auto state = index->Snapshot();

  const size_t k = 5;
  for (const FilterPredicate& pred : EdgePredicates()) {
    for (const std::string& q : queries) {
      auto got = index->LookupAt(*state, q, k, pred);
      // Oracle: unfiltered with unbounded k, post-filter, truncate.
      auto all = index->LookupAt(*state, q, master.size());
      std::vector<MutableFuzzyIndex::Match> want;
      for (const auto& m : all) {
        if (pred.Matches(attrs[m.id])) want.push_back(m);
        if (want.size() == k) break;
      }
      ExpectSameMatches(got, want,
                        "pred " + pred.CanonicalJson() + " query " + q);
    }
  }
}

TEST(FuzzyMatchFilterTest, EmptyFilterIsByteIdenticalToUnfiltered) {
  auto master = Master(120, 104);
  auto queries = DirtyQueries(master, 30, 105);
  auto index = BuildSealed(master, RandomAttrs(master.size(), 106));
  auto state = index->Snapshot();
  for (const std::string& q : queries) {
    ExpectSameMatches(index->LookupAt(*state, q, 5, FilterPredicate{}),
                      index->LookupAt(*state, q, 5), "query " + q);
  }
}

TEST(FuzzyMatchFilterTest, AttributelessIndexStillAnswersFilters) {
  // No attributes at all: positive filters match nothing, NOT-IN-only
  // filters match everything.
  auto master = Master(80, 107);
  auto index = BuildSealed(master, {});
  auto state = index->Snapshot();

  FilterPredicate positive;
  ASSERT_TRUE(
      positive.AddConjunct(In("country", {AttrValue::String("DE")})).ok());
  FilterPredicate negated;
  ASSERT_TRUE(
      negated.AddConjunct(NotIn("country", {AttrValue::String("DE")})).ok());

  const std::string q = master[0];
  EXPECT_TRUE(index->LookupAt(*state, q, 5, positive).empty());
  auto plain = index->LookupAt(*state, q, 5);
  EXPECT_FALSE(plain.empty());
  ExpectSameMatches(index->LookupAt(*state, q, 5, negated), plain, "NOT-IN");
}

TEST(FuzzyMatchFilterTest, CandidateCountersKeepTheirMeaning) {
  // filter.candidates_in counts the distinct candidates the unfiltered
  // lookup meets; filter.candidates_kept and index.lookup.candidates count
  // those the predicate keeps. Checked over a sealed segment plus a tail.
  auto master = Master(200, 108);
  auto attrs = RandomAttrs(master.size(), 109);
  auto index = BuildSealed(master, attrs);
  for (size_t i = 0; i < 40; ++i) {
    ASSERT_TRUE(index->Upsert(i, master[master.size() - 1 - i], attrs[i]).ok());
  }
  auto state = index->Snapshot();
  obs::Registry& registry = obs::Registry::Global();
  obs::Counter* candidates = registry.GetCounter("index.lookup.candidates");
  obs::Counter* in = registry.GetCounter("filter.candidates_in");
  obs::Counter* kept = registry.GetCounter("filter.candidates_kept");
  for (const FilterPredicate& pred : EdgePredicates()) {
    if (pred.empty()) continue;
    for (const std::string& q : DirtyQueries(master, 20, 110)) {
      uint64_t c0 = candidates->value();
      index->LookupAt(*state, q, 5);
      uint64_t unfiltered = candidates->value() - c0;
      uint64_t c1 = candidates->value(), in0 = in->value(), k0 = kept->value();
      index->LookupAt(*state, q, 5, pred);
      EXPECT_EQ(in->value() - in0, unfiltered) << pred.CanonicalJson();
      EXPECT_EQ(kept->value() - k0, candidates->value() - c1)
          << pred.CanonicalJson();
    }
  }
}

// --- MutableFuzzyIndex across its whole lifecycle ---

/// Asserts the filtered LookupAt equals the post-filtered unfiltered oracle
/// on the same epoch, for every edge predicate and query.
void ExpectFilteredOracle(const MutableFuzzyIndex& index,
                          const std::vector<std::string>& queries, size_t k,
                          const std::string& context) {
  auto state = index.Snapshot();
  for (const FilterPredicate& pred : EdgePredicates()) {
    for (const std::string& q : queries) {
      auto got = index.LookupAt(*state, q, k, pred);
      auto all = index.LookupAt(*state, q, state->live_docs + 1);
      std::vector<MutableFuzzyIndex::Match> want;
      for (const auto& m : all) {
        auto attrs = index.AttrsAt(*state, m.id);
        ASSERT_TRUE(attrs.has_value()) << context;
        if (pred.Matches(*attrs)) want.push_back(m);
        if (want.size() == k) break;
      }
      ASSERT_EQ(got.size(), want.size())
          << context << " pred " << pred.CanonicalJson() << " query " << q;
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, want[i].id) << context << " rank " << i;
        EXPECT_EQ(got[i].similarity, want[i].similarity)
            << context << " rank " << i;
      }
    }
  }
}

MutableIndexOptions ManualOptions() {
  MutableIndexOptions options;
  options.match.alpha = 0.35;
  options.seal_threshold = 0;   // explicit Seal only
  options.max_generations = 0;  // explicit Compact only
  return options;
}

Status UpsertWithAttrs(MutableFuzzyIndex* index,
                       const std::vector<std::string>& master,
                       const std::vector<AttrSet>& attrs) {
  for (size_t i = 0; i < master.size(); ++i) {
    SSJOIN_RETURN_NOT_OK(index->Upsert(i, master[i], attrs[i]));
  }
  return Status::OK();
}

TEST(MutableFilterTest, FreshTailSealCompact) {
  auto master = Master(200, 111);
  auto queries = DirtyQueries(master, 30, 112);
  auto attrs = RandomAttrs(master.size(), 113);

  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  ASSERT_TRUE(UpsertWithAttrs(index.get(), master, attrs).ok());
  ExpectFilteredOracle(*index, queries, 5, "mutable tail");

  ASSERT_TRUE(index->Seal().ok());
  ExpectFilteredOracle(*index, queries, 5, "after seal");

  // A second wave into a fresh tail, then compact everything into one
  // generation: attributes must survive both the segment write and the merge.
  auto extra = Master(60, 114);
  auto extra_attrs = RandomAttrs(extra.size(), 115);
  for (size_t i = 0; i < extra.size(); ++i) {
    ASSERT_TRUE(
        index->Upsert(master.size() + i, extra[i], extra_attrs[i]).ok());
  }
  ExpectFilteredOracle(*index, queries, 5, "sealed + tail");
  ASSERT_TRUE(index->Compact().ok());
  ExpectFilteredOracle(*index, queries, 5, "after compact");
}

TEST(MutableFilterTest, ReupsertWithoutAttrsClearsThem) {
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  AttrSet de;
  ASSERT_TRUE(de.Set("country", AttrValue::String("DE")).ok());
  ASSERT_TRUE(index->Upsert(1, "first version", de).ok());
  ASSERT_TRUE(index->Upsert(1, "second version").ok());
  auto state = index->Snapshot();
  auto attrs = index->AttrsAt(*state, 1);
  ASSERT_TRUE(attrs.has_value());
  EXPECT_TRUE(attrs->empty());
}

TEST(MutableFilterTest, SurvivesWalReplayAndSealedReopen) {
  std::string dir = FreshDir("filter_replay");
  auto master = Master(150, 116);
  auto queries = DirtyQueries(master, 25, 117);
  auto attrs = RandomAttrs(master.size(), 118);

  MutableIndexOptions options = ManualOptions();
  options.data_dir = dir;
  {
    auto index = MutableFuzzyIndex::Create(options).MoveValueUnsafe();
    // Seal half (segment file path), leave half in the WAL tail.
    for (size_t i = 0; i < master.size() / 2; ++i) {
      ASSERT_TRUE(index->Upsert(i, master[i], attrs[i]).ok());
    }
    ASSERT_TRUE(index->Seal().ok());
    for (size_t i = master.size() / 2; i < master.size(); ++i) {
      ASSERT_TRUE(index->Upsert(i, master[i], attrs[i]).ok());
    }
    ExpectFilteredOracle(*index, queries, 5, "before reopen");
    // Destructor = unclean-enough shutdown; WAL carries the tail.
  }
  auto reopened = MutableFuzzyIndex::Open(options);
  ASSERT_TRUE(reopened.ok()) << reopened.status().message();
  ExpectFilteredOracle(**reopened, queries, 5, "after WAL replay");

  // Attribute spot check across the reopen boundary.
  auto state = (*reopened)->Snapshot();
  for (uint64_t id : {uint64_t{0}, master.size() - 1}) {
    auto got = (*reopened)->AttrsAt(*state, id);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(*got, attrs[id]) << "doc " << id;
  }
  std::filesystem::remove_all(dir);
}

// --- LookupService: concurrent callers, filtered and unfiltered ---

TEST(ServeFilterTest, FilteredLookupsAcrossThreadCounts) {
  auto master = Master(150, 121);
  auto queries = DirtyQueries(master, 20, 122);
  auto attrs = RandomAttrs(master.size(), 123);
  auto preds = EdgePredicates();

  // Reference answers from a bare index (no service).
  auto reference = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  ASSERT_TRUE(UpsertWithAttrs(reference.get(), master, attrs).ok());
  auto ref_state = reference->Snapshot();

  for (size_t threads : {1u, 2u, 8u}) {
    auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
    ASSERT_TRUE(UpsertWithAttrs(index.get(), master, attrs).ok());
    auto service = serve::LookupService::Create(std::move(index), {});
    ASSERT_TRUE(service.ok());
    // `threads` concurrent callers each run every filtered lookup twice; all
    // must equal the bare index.
    auto caller = [&] {
      for (const FilterPredicate& pred : preds) {
        for (const std::string& q : queries) {
          auto want = reference->LookupAt(*ref_state, q, 5, pred);
          for (int round = 0; round < 2; ++round) {
            auto got = (*service)->Lookup(
                q, 5, std::chrono::milliseconds::zero(), pred);
            ASSERT_TRUE(got.ok()) << got.status().message();
            ASSERT_EQ(got->matches.size(), want.size()) << "threads " << threads;
            for (size_t i = 0; i < want.size(); ++i) {
              EXPECT_EQ(got->matches[i].id, want[i].id);
              EXPECT_EQ(got->matches[i].similarity, want[i].similarity);
            }
          }
        }
      }
    };
    std::vector<std::thread> callers;
    for (size_t t = 0; t < threads; ++t) callers.emplace_back(caller);
    for (std::thread& t : callers) t.join();
  }
}

TEST(ServeFilterTest, FilteredAndUnfilteredNeverAliasInCache) {
  auto master = Master(100, 124);
  auto attrs = RandomAttrs(master.size(), 125);
  auto index = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  ASSERT_TRUE(UpsertWithAttrs(index.get(), master, attrs).ok());
  auto service = serve::LookupService::Create(std::move(index), {});
  ASSERT_TRUE(service.ok());

  FilterPredicate zero;
  ASSERT_TRUE(zero.AddConjunct(In("country", {AttrValue::String("ZZ")})).ok());
  const std::string q = master[0];

  // The unfiltered result, then the filtered lookup of the SAME query: the
  // two answers must stay distinct, in both orders.
  auto plain = (*service)->Lookup(q, 5);
  ASSERT_TRUE(plain.ok());
  ASSERT_FALSE(plain->matches.empty());
  auto filtered =
      (*service)->Lookup(q, 5, std::chrono::milliseconds::zero(), zero);
  ASSERT_TRUE(filtered.ok());
  EXPECT_TRUE(filtered->matches.empty());
  auto plain_again = (*service)->Lookup(q, 5);
  ASSERT_TRUE(plain_again.ok());
  EXPECT_EQ(plain_again->matches.size(), plain->matches.size());
}

// --- Sharded coordinator: N ∈ {1, 3} ---

TEST(ShardFilterTest, FilteredLookupIsShardCountInvariant) {
  auto master = Master(180, 131);
  auto queries = DirtyQueries(master, 15, 132);
  auto attrs = RandomAttrs(master.size(), 133);
  auto preds = EdgePredicates();

  // Unsharded reference.
  auto reference = MutableFuzzyIndex::Create(ManualOptions()).MoveValueUnsafe();
  ASSERT_TRUE(UpsertWithAttrs(reference.get(), master, attrs).ok());
  auto ref_state = reference->Snapshot();

  for (uint32_t num_shards : {1u, 3u}) {
    shard::ShardedIndexOptions options;
    options.num_shards = num_shards;
    options.match.alpha = 0.35;
    options.seal_threshold = 0;
    options.max_generations = 0;
    auto sharded = shard::ShardedLookupIndex::Create(options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().message();
    for (size_t i = 0; i < master.size(); ++i) {
      ASSERT_TRUE((*sharded)->Upsert(i, master[i], attrs[i]).ok());
    }
    for (const FilterPredicate& pred : preds) {
      for (const std::string& q : queries) {
        auto got = (*sharded)->Lookup(q, 5, std::chrono::milliseconds::zero(),
                                      pred);
        ASSERT_TRUE(got.ok()) << got.status().message();
        auto want = reference->LookupAt(*ref_state, q, 5, pred);
        ASSERT_EQ(got->matches.size(), want.size())
            << "shards " << num_shards << " pred " << pred.CanonicalJson()
            << " query " << q;
        for (size_t i = 0; i < want.size(); ++i) {
          EXPECT_EQ(got->matches[i].id, want[i].id) << "shards " << num_shards;
          EXPECT_EQ(got->matches[i].similarity, want[i].similarity)
              << "shards " << num_shards;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ssjoin::filter
