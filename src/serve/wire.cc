#include "serve/wire.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace ssjoin::serve {

namespace {

/// Recursive-descent JSON parser for requests (objects of scalars, one
/// nesting level) and replies (any nesting, members kept raw); the cursor
/// is a string_view consumed from the front.
class Parser {
 public:
  explicit Parser(std::string_view in) : in_(in) {}

  Result<std::map<std::string, JsonScalar>> ParseObject() {
    std::map<std::string, JsonScalar> out;
    SSJOIN_RETURN_NOT_OK(ParseTopLevel([&](std::string key) -> Status {
      JsonScalar value;
      SSJOIN_RETURN_NOT_OK(ParseScalar(&value));
      return Insert(&out, std::move(key), std::move(value), "");
    }));
    return out;
  }

  Result<std::map<std::string, std::string>> ParseRaw() {
    std::map<std::string, std::string> out;
    SSJOIN_RETURN_NOT_OK(ParseTopLevel([&](std::string key) -> Status {
      size_t from = pos_;
      SSJOIN_RETURN_NOT_OK(SkipValue(0));
      return Insert(&out, std::move(key),
                    std::string(in_.substr(from, pos_ - from)), "");
    }));
    return out;
  }

  Result<std::map<std::string, JsonValue>> ParseRequest() {
    std::map<std::string, JsonValue> out;
    SSJOIN_RETURN_NOT_OK(ParseTopLevel([&](std::string key) -> Status {
      JsonValue value;
      if (Peek() == '{') {
        value.is_object = true;
        SSJOIN_RETURN_NOT_OK(ParseInnerObject(&value.object));
      } else if (Peek() == '[') {
        return Status::Invalid(
            "arrays are only supported inside a nested request object");
      } else {
        SSJOIN_RETURN_NOT_OK(ParseScalar(&value.scalar));
      }
      return Insert(&out, std::move(key), std::move(value), "");
    }));
    return out;
  }

 private:
  char Peek() const { return pos_ < in_.size() ? in_[pos_] : '\0'; }

  void SkipSpace() {
    while (pos_ < in_.size() &&
           std::isspace(static_cast<unsigned char>(in_[pos_]))) {
      ++pos_;
    }
  }

  bool AtEnd() const { return pos_ >= in_.size(); }

  Status Expect(char c) {
    if (AtEnd()) {
      return Status::Invalid(std::string("unexpected end of input, expected '") +
                             c + "' in JSON");
    }
    if (Peek() != c) {
      return Status::Invalid(std::string("expected '") + c + "' in JSON");
    }
    ++pos_;
    return Status::OK();
  }

  template <typename V>
  static Status Insert(std::map<std::string, V>* out, std::string key, V value,
                       const char* level) {
    if (!out->emplace(std::move(key), std::move(value)).second) {
      return Status::Invalid(std::string("duplicate key in ") + level +
                             "JSON object");
    }
    return Status::OK();
  }

  /// `{"key": value, ...}`; `member(key)` parses the value at the cursor.
  template <typename Member>
  Status ParseMembers(Member&& member) {
    SSJOIN_RETURN_NOT_OK(Expect('{'));
    SkipSpace();
    if (Peek() == '}') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipSpace();
      std::string key;
      SSJOIN_RETURN_NOT_OK(ParseString(&key));
      SkipSpace();
      SSJOIN_RETURN_NOT_OK(Expect(':'));
      SkipSpace();
      SSJOIN_RETURN_NOT_OK(member(std::move(key)));
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == '}') {
        ++pos_;
        return Status::OK();
      }
      if (AtEnd()) {
        return Status::Invalid("unexpected end of input inside JSON object");
      }
      return Status::Invalid("expected ',' or '}' in JSON object");
    }
  }

  /// The whole input: one object and nothing after it but whitespace.
  template <typename Member>
  Status ParseTopLevel(Member&& member) {
    SkipSpace();
    SSJOIN_RETURN_NOT_OK(ParseMembers(member));
    SkipSpace();
    if (pos_ != in_.size()) {
      return Status::Invalid("trailing bytes after JSON object");
    }
    return Status::OK();
  }

  /// `[item, ...]`; `item()` parses each element at the cursor.
  template <typename Item>
  Status ParseItems(Item&& item) {
    SSJOIN_RETURN_NOT_OK(Expect('['));
    SkipSpace();
    if (Peek() == ']') {
      ++pos_;
      return Status::OK();
    }
    for (;;) {
      SkipSpace();
      SSJOIN_RETURN_NOT_OK(item());
      SkipSpace();
      char c = Peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      if (c == ']') {
        ++pos_;
        return Status::OK();
      }
      if (AtEnd()) {
        return Status::Invalid("unexpected end of input inside JSON array");
      }
      return Status::Invalid("expected ',' or ']' in JSON array");
    }
  }

  /// The one nesting level: an object whose values are scalars or arrays of
  /// scalars. Anything deeper is rejected (ParseScalar refuses '{'/'[').
  Status ParseInnerObject(std::map<std::string, JsonNested>* out) {
    return ParseMembers([&](std::string key) -> Status {
      JsonNested value;
      value.is_array = Peek() == '[';
      auto item = [&]() -> Status {
        JsonScalar scalar;
        SSJOIN_RETURN_NOT_OK(ParseScalar(&scalar));
        value.items.push_back(std::move(scalar));
        return Status::OK();
      };
      SSJOIN_RETURN_NOT_OK(value.is_array ? ParseItems(item) : item());
      return Insert(out, std::move(key), std::move(value), "nested ");
    });
  }

  /// Any JSON value nested at most 16 levels deep, validated and skipped.
  Status SkipValue(int depth) {
    if ((Peek() == '{' || Peek() == '[') && depth >= 16) {
      return Status::Invalid("JSON nested too deeply");
    }
    if (Peek() == '{') {
      return ParseMembers([&](std::string) { return SkipValue(depth + 1); });
    }
    if (Peek() == '[') return ParseItems([&] { return SkipValue(depth + 1); });
    JsonScalar ignored;
    return ParseScalar(&ignored);
  }

  Status ParseString(std::string* out) {
    SSJOIN_RETURN_NOT_OK(Expect('"'));
    out->clear();
    while (pos_ < in_.size()) {
      char c = in_[pos_++];
      if (c == '"') return Status::OK();
      if (static_cast<unsigned char>(c) < 0x20) {
        // JSON forbids raw control characters (including NUL and embedded
        // newlines — significant for a line-framed protocol) inside strings;
        // they must arrive as \uXXXX or \n-style escapes.
        return Status::Invalid("unescaped control character in JSON string");
      }
      if (c != '\\') {
        out->push_back(c);
        continue;
      }
      if (pos_ >= in_.size()) break;
      char e = in_[pos_++];
      switch (e) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          if (pos_ + 4 > in_.size()) {
            return Status::Invalid("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            char h = in_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else return Status::Invalid("bad \\u escape");
          }
          // UTF-8 encode (BMP only; surrogate pairs are rejected as the
          // protocol carries UTF-8 directly).
          if (code >= 0xD800 && code <= 0xDFFF) {
            return Status::Invalid("surrogate \\u escapes unsupported; send UTF-8");
          }
          if (code < 0x80) {
            out->push_back(static_cast<char>(code));
          } else if (code < 0x800) {
            out->push_back(static_cast<char>(0xC0 | (code >> 6)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          } else {
            out->push_back(static_cast<char>(0xE0 | (code >> 12)));
            out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
            out->push_back(static_cast<char>(0x80 | (code & 0x3F)));
          }
          break;
        }
        default:
          return Status::Invalid("bad escape in JSON string");
      }
    }
    return Status::Invalid("unterminated JSON string");
  }

  Status ParseScalar(JsonScalar* out) {
    char c = Peek();
    if (c == '"') {
      out->type = JsonScalar::Type::kString;
      return ParseString(&out->str);
    }
    if (c == 't' || c == 'f') {
      const char* word = c == 't' ? "true" : "false";
      size_t len = c == 't' ? 4 : 5;
      if (in_.compare(pos_, len, word) != 0) {
        return Status::Invalid("bad JSON literal");
      }
      pos_ += len;
      out->type = JsonScalar::Type::kBool;
      out->boolean = c == 't';
      return Status::OK();
    }
    if (c == 'n') {
      if (in_.compare(pos_, 4, "null") != 0) {
        return Status::Invalid("bad JSON literal");
      }
      pos_ += 4;
      out->type = JsonScalar::Type::kNull;
      return Status::OK();
    }
    if (c == '{' || c == '[') {
      return Status::Invalid("nested JSON values are not supported");
    }
    // Strict JSON number grammar: -?int frac? exp?, int = 0 | [1-9][0-9]*.
    // The previous scan accepted any run of number-ish characters and let
    // strtod sort it out, which silently took "+1", "01", ".5" and "--" —
    // and "1e999" as infinity.
    if (AtEnd()) return Status::Invalid("unexpected end of input in JSON value");
    size_t start = pos_;
    auto digit = [&] {
      return pos_ < in_.size() &&
             std::isdigit(static_cast<unsigned char>(in_[pos_]));
    };
    if (Peek() == '-') ++pos_;
    if (!digit()) return Status::Invalid("bad JSON value");
    if (in_[pos_] == '0') {
      ++pos_;
    } else {
      while (digit()) ++pos_;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!digit()) return Status::Invalid("bad JSON number: missing fraction digits");
      while (digit()) ++pos_;
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') ++pos_;
      if (!digit()) return Status::Invalid("bad JSON number: missing exponent digits");
      while (digit()) ++pos_;
    }
    std::string num(in_.substr(start, pos_ - start));
    char* end = nullptr;
    out->num = std::strtod(num.c_str(), &end);
    if (end == nullptr || *end != '\0') {
      return Status::Invalid("bad JSON number '" + num + "'");
    }
    if (!std::isfinite(out->num)) {
      return Status::Invalid("JSON number out of range '" + num + "'");
    }
    out->type = JsonScalar::Type::kNumber;
    return Status::OK();
  }

  std::string_view in_;
  size_t pos_ = 0;
};

}  // namespace

Result<std::map<std::string, JsonScalar>> ParseJsonObject(std::string_view line) {
  return Parser(line).ParseObject();
}

Result<std::map<std::string, JsonValue>> ParseJsonRequest(std::string_view line) {
  return Parser(line).ParseRequest();
}

Result<std::map<std::string, std::string>> ParseJsonObjectRaw(
    std::string_view line) {
  return Parser(line).ParseRaw();
}

namespace {

/// Doubles carry JSON numbers across the parser; only integers exactly
/// representable in both double and int64 may become attribute values.
Result<filter::AttrValue> AttrValueFromScalar(const JsonScalar& scalar) {
  switch (scalar.type) {
    case JsonScalar::Type::kString:
      return filter::AttrValue::String(scalar.str);
    case JsonScalar::Type::kNumber: {
      constexpr double kMaxExact = 9007199254740992.0;  // 2^53
      if (scalar.num != std::trunc(scalar.num) || scalar.num > kMaxExact ||
          scalar.num < -kMaxExact) {
        return Status::Invalid(
            "attribute numbers must be integers with |x| <= 2^53");
      }
      return filter::AttrValue::Int64(static_cast<int64_t>(scalar.num));
    }
    case JsonScalar::Type::kBool:
    case JsonScalar::Type::kNull:
      return Status::Invalid(
          "attribute values must be strings or integer numbers");
  }
  return Status::Invalid("unreachable attribute scalar type");
}

}  // namespace

Result<filter::FilterPredicate> FilterFromWire(const JsonValue& value) {
  if (!value.is_object) {
    return Status::Invalid("'filter' must be a JSON object");
  }
  filter::FilterPredicate pred;
  for (const auto& [key, nested] : value.object) {
    filter::FilterConjunct conjunct;
    conjunct.negated = !key.empty() && key[0] == '!';
    conjunct.name = conjunct.negated ? key.substr(1) : key;
    conjunct.values.reserve(nested.items.size());
    for (const JsonScalar& item : nested.items) {
      SSJOIN_ASSIGN_OR_RETURN(filter::AttrValue v, AttrValueFromScalar(item));
      conjunct.values.push_back(std::move(v));
    }
    SSJOIN_RETURN_NOT_OK(pred.AddConjunct(std::move(conjunct)));
  }
  return pred;
}

Result<filter::AttrSet> AttrsFromWire(const JsonValue& value) {
  if (!value.is_object) {
    return Status::Invalid("'attrs' must be a JSON object");
  }
  filter::AttrSet attrs;
  for (const auto& [key, nested] : value.object) {
    if (nested.is_array) {
      return Status::Invalid("attribute '" + key +
                             "' must be a single scalar, not an array");
    }
    SSJOIN_ASSIGN_OR_RETURN(filter::AttrValue v,
                            AttrValueFromScalar(nested.items.front()));
    SSJOIN_RETURN_NOT_OK(attrs.Set(key, std::move(v)));
  }
  return attrs;
}

std::string AttrsToJson(const filter::AttrSet& attrs) {
  std::string out = "{";
  bool first = true;
  for (const auto& [name, value] : attrs.entries()) {
    if (!first) out.push_back(',');
    first = false;
    filter::AppendJsonString(&out, name);
    out.push_back(':');
    if (value.type == filter::AttrType::kString) {
      filter::AppendJsonString(&out, value.str);
    } else {
      out += std::to_string(value.i64);
    }
  }
  out.push_back('}');
  return out;
}

Result<uint64_t> UintFromJson(const JsonScalar& scalar, uint64_t max) {
  max = std::min(max, kMaxExactInteger);
  if (scalar.type == JsonScalar::Type::kNumber) {
    double v = scalar.num;
    if (v >= 0.0 && v <= static_cast<double>(max) && v == std::floor(v)) {
      return static_cast<uint64_t>(v);
    }
  }
  return Status::Invalid("expected an integer in [0, " + std::to_string(max) +
                         "]");
}

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace ssjoin::serve
