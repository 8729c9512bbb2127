/// QueryCache unit tests: LRU behaviour, sharding, counters, and the wire
/// helpers' flat-JSON parser that the server builds on.

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "serve/query_cache.h"
#include "serve/wire.h"

namespace ssjoin::serve {
namespace {

using Match = index::MutableFuzzyIndex::Match;

std::vector<Match> Matches(uint32_t ref) { return {{ref, 0.5}}; }

TEST(QueryCacheTest, HitMissAndCounters) {
  QueryCache cache(8, 1);
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.misses(), 1u);
  cache.Put("a", 1, Matches(1));
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].id, 1u);
  EXPECT_EQ(cache.hits(), 1u);
  EXPECT_EQ(cache.size(), 1u);
}

TEST(QueryCacheTest, EvictsLeastRecentlyUsed) {
  QueryCache cache(2, 1);  // single shard, capacity 2
  cache.Put("a", 1, Matches(1));
  cache.Put("b", 1, Matches(2));
  ASSERT_TRUE(cache.Get("a").has_value());  // refresh a; b is now LRU
  cache.Put("c", 1, Matches(3));               // evicts b
  EXPECT_EQ(cache.evictions(), 1u);
  EXPECT_TRUE(cache.Get("a").has_value());
  EXPECT_FALSE(cache.Get("b").has_value());
  EXPECT_TRUE(cache.Get("c").has_value());
}

TEST(QueryCacheTest, PutRefreshesExistingKey) {
  QueryCache cache(2, 1);
  cache.Put("a", 1, Matches(1));
  cache.Put("a", 1, Matches(9));
  EXPECT_EQ(cache.size(), 1u);
  auto hit = cache.Get("a");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ((*hit)[0].id, 9u);
}

TEST(QueryCacheTest, ZeroCapacityDisables) {
  QueryCache cache(0, 8);
  EXPECT_FALSE(cache.enabled());
  cache.Put("a", 1, Matches(1));
  EXPECT_FALSE(cache.Get("a").has_value());
  EXPECT_EQ(cache.size(), 0u);
  // A disabled cache records no misses either — the service reports the
  // miss, not the cache.
  EXPECT_EQ(cache.misses(), 0u);
}

TEST(QueryCacheTest, TotalCapacityNeverExceeded) {
  // Regression: ceil-rounding the per-shard capacity let a capacity-10 cache
  // with 8 shards hold 16 entries (2 per shard). The remainder must instead
  // be spread so the shard capacities sum exactly to the requested total.
  for (auto [capacity, shards] : {std::pair<size_t, size_t>{10, 8},
                                  {7, 4},
                                  {8, 8},
                                  {3, 8},
                                  {1, 8},
                                  {100, 16}}) {
    QueryCache cache(capacity, shards);
    for (int i = 0; i < 1000; ++i) {
      cache.Put("key" + std::to_string(i), 1, Matches(static_cast<uint32_t>(i)));
    }
    EXPECT_LE(cache.size(), capacity)
        << "capacity=" << capacity << " shards=" << shards;
  }
}

TEST(QueryCacheTest, SingleShardUsesFullCapacity) {
  QueryCache cache(10, 1);
  for (int i = 0; i < 10; ++i) {
    cache.Put("k" + std::to_string(i), 1, Matches(static_cast<uint32_t>(i)));
  }
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_EQ(cache.evictions(), 0u);
  cache.Put("one-more", 1, Matches(99));
  EXPECT_EQ(cache.size(), 10u);
  EXPECT_EQ(cache.evictions(), 1u);
}

TEST(QueryCacheTest, PurgeReclaimsStaleEpochCapacity) {
  // Regression: entries keyed to superseded epochs are unreachable (the
  // epoch is in the key) but used to hold their capacity slots until LRU
  // pressure happened to reach them. After churn plus a purge, the full
  // capacity must be available to the current epoch again.
  QueryCache cache(8, 1);
  for (int e = 1; e <= 4; ++e) {
    for (int i = 0; i < 2; ++i) {
      cache.Put("e" + std::to_string(e) + "q" + std::to_string(i),
                static_cast<uint64_t>(e), Matches(static_cast<uint32_t>(i)));
    }
  }
  ASSERT_EQ(cache.size(), 8u);  // full: 6 of 8 slots are dead weight
  cache.PurgeEpochsBelow(4);
  EXPECT_EQ(cache.stale_purged(), 6u);
  EXPECT_EQ(cache.size(), 2u);
  // The reclaimed capacity really is usable: 6 current-epoch entries fit
  // without evicting the surviving ones.
  for (int i = 0; i < 6; ++i) {
    cache.Put("new" + std::to_string(i), 4, Matches(static_cast<uint32_t>(i)));
  }
  EXPECT_EQ(cache.size(), 8u);
  EXPECT_EQ(cache.evictions(), 0u);
  EXPECT_TRUE(cache.Get("e4q0").has_value());
  EXPECT_TRUE(cache.Get("e4q1").has_value());
}

TEST(QueryCacheTest, PurgeFloorDropsLateStalePuts) {
  // A request admitted at epoch 2 may finish after the purge that advanced
  // the floor to 5; its Put must be dropped, not re-parked as dead weight.
  QueryCache cache(8, 1);
  cache.PurgeEpochsBelow(5);
  cache.Put("late", 2, Matches(1));
  EXPECT_EQ(cache.size(), 0u);
  cache.Put("fresh", 5, Matches(2));
  EXPECT_EQ(cache.size(), 1u);
  // The floor is monotonic: an older purge cannot lower it.
  cache.PurgeEpochsBelow(3);
  EXPECT_TRUE(cache.Get("fresh").has_value());
}

TEST(QueryCacheTest, ShardedConcurrentAccess) {
  QueryCache cache(1024, 8);
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&cache, t] {
      for (int i = 0; i < 500; ++i) {
        std::string key = "k" + std::to_string(i % 100);
        if ((i + t) % 3 == 0) {
          cache.Put(key, 1, Matches(static_cast<uint32_t>(i % 100)));
        } else if (auto hit = cache.Get(key)) {
          EXPECT_EQ((*hit)[0].id, static_cast<uint32_t>(i % 100));
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_LE(cache.size(), 100u);
  EXPECT_EQ(cache.hits() + cache.misses(), 4u * 500u * 2u / 3u);
}

TEST(WireTest, ParsesFlatObject) {
  auto obj = ParseJsonObject(
      R"({"op": "lookup", "query": "Mcrosoft \"Corp\"", "k": 3, "fast": true, "x": null})");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_EQ(obj->at("op").str, "lookup");
  EXPECT_EQ(obj->at("query").str, "Mcrosoft \"Corp\"");
  EXPECT_EQ(obj->at("k").num, 3.0);
  EXPECT_TRUE(obj->at("fast").boolean);
  EXPECT_EQ(obj->at("x").type, JsonScalar::Type::kNull);
}

TEST(WireTest, ParsesEscapesAndNumbers) {
  auto obj = ParseJsonObject(R"({"s": "a\tbéc", "n": -2.5e1})");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_EQ(obj->at("s").str, "a\tb\xc3\xa9" "c");
  EXPECT_EQ(obj->at("n").num, -25.0);
}

TEST(WireTest, RejectsMalformedInput) {
  EXPECT_FALSE(ParseJsonObject("").ok());
  EXPECT_FALSE(ParseJsonObject("not json").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": 1").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": 1} trailing").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": {\"nested\": 1}}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": [1, 2]}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": 1, \"a\": 2}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": \"unterminated}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": 12..5}").ok());
}

TEST(WireTest, RawObjectKeepsNestedMembersVerbatim) {
  auto obj = ParseJsonObjectRaw(
      R"({"ok": true, "matches": [{"ref": 1, "v": "a\"b"}, []], )"
      R"("stats": {"p50": -2.5e1}, "s": "x"})");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_EQ(obj->at("ok"), "true");
  EXPECT_EQ(obj->at("matches"), R"([{"ref": 1, "v": "a\"b"}, []])");
  EXPECT_EQ(obj->at("stats"), R"({"p50": -2.5e1})");
  EXPECT_EQ(obj->at("s"), R"("x")");
  // Nested values obey the same strict grammar; only top-level keys must be
  // unique; nesting is bounded.
  for (const char* bad : {R"({"a": [1,]})", R"({"a": {"b": nan}})",
                          R"({"a": [01]})", R"({"a": 1, "a": 2})",
                          R"({"a": [1]} x)", R"([1])"}) {
    EXPECT_FALSE(ParseJsonObjectRaw(bad).ok()) << bad;
  }
  EXPECT_TRUE(ParseJsonObjectRaw(R"({"a": {"b": 1, "b": 2}})").ok());
  std::string deep = std::string(17, '[') + std::string(17, ']');
  EXPECT_FALSE(ParseJsonObjectRaw("{\"a\": " + deep + "}").ok());
  deep = std::string(16, '[') + std::string(16, ']');
  EXPECT_TRUE(ParseJsonObjectRaw("{\"a\": " + deep + "}").ok());
}

TEST(WireTest, RejectsEveryStrictPrefix) {
  // Truncation hardening: a line cut anywhere before its final '}' must be
  // rejected, never silently accepted as a shorter request.
  const std::string line =
      R"({"op": "lookup", "query": "a\"b\\c", "k": 3, "deadline_ms": 50})";
  ASSERT_TRUE(ParseJsonObject(line).ok());
  for (size_t len = 0; len < line.size(); ++len) {
    EXPECT_FALSE(ParseJsonObject(std::string_view(line).substr(0, len)).ok())
        << "prefix of length " << len << " parsed";
  }
}

TEST(WireTest, RejectsTruncatedEscapesAndLiterals) {
  // End-of-buffer paths: every one of these used to either read past the
  // token or fall into a generic error; all must fail cleanly.
  EXPECT_FALSE(ParseJsonObject("{\"a\": \"x\\").ok());      // escape at EOF
  EXPECT_FALSE(ParseJsonObject("{\"a\": \"x\\u00").ok());   // \u cut short
  EXPECT_FALSE(ParseJsonObject("{\"a\": tru").ok());        // literal cut short
  EXPECT_FALSE(ParseJsonObject("{\"a\": nul").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": ").ok());           // value missing
  EXPECT_FALSE(ParseJsonObject("{\"a\": 1,").ok());         // key missing
  EXPECT_FALSE(ParseJsonObject("{").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\"").ok());             // ':' missing
}

TEST(WireTest, StrictNumberGrammar) {
  // The old scan handed any number-ish run to strtod, silently accepting
  // "+1", "01", ".5", "1." and turning "1e999" into infinity.
  EXPECT_FALSE(ParseJsonObject("{\"n\": +1}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"n\": 01}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"n\": .5}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"n\": 1.}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"n\": 1e}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"n\": 1e+}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"n\": 1e999}").ok());    // overflows to inf
  EXPECT_FALSE(ParseJsonObject("{\"n\": --1}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"n\": -}").ok());

  for (const char* valid : {"0", "-0", "-0.5", "10", "1.25", "1e5", "1E+5",
                            "1e-5", "0.0", "123e2"}) {
    auto obj = ParseJsonObject(std::string("{\"n\": ") + valid + "}");
    EXPECT_TRUE(obj.ok()) << valid << ": " << obj.status().ToString();
  }
  EXPECT_EQ(ParseJsonObject("{\"n\": -2.5e1}")->at("n").num, -25.0);
}

TEST(WireTest, RejectsRawControlCharactersInStrings) {
  // A line-framed protocol must never let a raw control byte (NUL, tab,
  // embedded newline) hide inside a string; JSON requires escapes.
  std::string nul_line = "{\"a\": \"x";
  nul_line.push_back('\0');
  nul_line += "y\"}";
  EXPECT_FALSE(ParseJsonObject(nul_line).ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": \"x\ty\"}").ok());
  EXPECT_FALSE(ParseJsonObject("{\"a\": \"x\ny\"}").ok());
  // The escaped forms of the same bytes are fine.
  auto obj = ParseJsonObject(R"({"a": "x\u0000y", "b": "x\ty"})");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_EQ(obj->at("a").str, std::string("x\0y", 3));
  EXPECT_EQ(obj->at("b").str, "x\ty");
}

TEST(WireTest, EscapeRoundTrip) {
  std::string raw = "tab\t quote\" backslash\\ newline\n";
  auto obj = ParseJsonObject("{\"s\": \"" + JsonEscape(raw) + "\"}");
  ASSERT_TRUE(obj.ok()) << obj.status().ToString();
  EXPECT_EQ(obj->at("s").str, raw);
}

TEST(WireTest, UintFromJsonAcceptsOnlyExactIntegers) {
  auto uint_of = [](const std::string& number, uint64_t max) {
    auto obj = ParseJsonObject("{\"n\": " + number + "}");
    EXPECT_TRUE(obj.ok()) << number;
    return UintFromJson(obj->at("n"), max);
  };
  // 1e30 would be undefined behaviour to cast, 2.5 would truncate, -1 would
  // wrap, and 2^53 + 2 is a double past the exactly-representable range.
  for (const char* bad : {"1e30", "2.5", "-1", "9007199254740994"}) {
    auto r = uint_of(bad, kMaxExactInteger);
    EXPECT_FALSE(r.ok()) << bad;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << bad;
  }
  EXPECT_EQ(*uint_of("0", 10), 0u);
  EXPECT_EQ(*uint_of("10", 10), 10u);
  EXPECT_EQ(*uint_of("1e1", 10), 10u);
  EXPECT_FALSE(uint_of("11", 10).ok());
  EXPECT_EQ(*uint_of("9007199254740992", kMaxExactInteger), kMaxExactInteger);
  // `max` above 2^53 is capped, never a licence to cast an inexact double.
  EXPECT_FALSE(uint_of("9007199254740994", UINT64_MAX).ok());
  JsonScalar text;
  text.type = JsonScalar::Type::kString;
  text.str = "7";
  EXPECT_FALSE(UintFromJson(text).ok());
}

}  // namespace
}  // namespace ssjoin::serve
