/// Wire helper tests: the flat-JSON parser the server builds on, its strict
/// grammar, escaping and exact integers.

#include <gtest/gtest.h>

#include <string>

#include "serve/wire.h"

namespace ssjoin::serve {
namespace {

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
