#ifndef SSJOIN_SERVE_WIRE_H_
#define SSJOIN_SERVE_WIRE_H_

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"
#include "filter/predicate.h"

namespace ssjoin::serve {

/// \brief The newline-delimited-JSON wire protocol of ssjoin_served.
///
/// Requests are JSON objects, one per line:
///
///   {"op": "lookup", "query": "Mcrosoft Corp", "k": 3}
///   {"op": "lookup", "query": "...", "k": 1, "deadline_ms": 50}
///   {"op": "lookup", "query": "...", "filter": {"country": ["DE", "FR"]}}
///   {"op": "upsert", "id": 7, "value": "...", "attrs": {"country": "DE"}}
///   {"op": "stats"}
///   {"op": "ping"}
///   {"op": "shutdown"}
///
/// Responses are one JSON object per line: {"ok": true, ...} on success or
/// {"ok": false, "error": "..."} on failure. Exactly ONE level of nesting is
/// supported on the request side — object fields whose values are scalars or
/// arrays of scalars, the shape of "filter" and "attrs"; responses stay flat.

/// A scalar JSON value of a request field.
struct JsonScalar {
  enum class Type { kString, kNumber, kBool, kNull } type = Type::kNull;
  std::string str;     // kString
  double num = 0.0;    // kNumber
  bool boolean = false;  // kBool
};

/// A field of a nested request object: one scalar, or an array of scalars.
struct JsonNested {
  bool is_array = false;
  std::vector<JsonScalar> items;  // exactly one element when !is_array
};

/// A top-level request field: a scalar, or — one nesting level — an object
/// of JsonNested values ("filter": {...}, "attrs": {...}).
struct JsonValue {
  bool is_object = false;
  JsonScalar scalar;                          // valid when !is_object
  std::map<std::string, JsonNested> object;   // valid when is_object
};

/// Parses one flat JSON object (string/number/bool/null values only;
/// rejects nested arrays/objects). Keys must be unique.
Result<std::map<std::string, JsonScalar>> ParseJsonObject(std::string_view line);

/// Parses one request object allowing a single nesting level: values may be
/// scalars, or objects whose values are scalars or arrays of scalars.
/// Deeper nesting and top-level arrays are rejected. Keys must be unique at
/// both levels.
Result<std::map<std::string, JsonValue>> ParseJsonRequest(std::string_view line);

/// Parses any one JSON object, such as a reply whose members nest arrays and
/// objects. Nested values are validated (the same strict grammar, at most 16
/// levels) but not decoded: each top-level member maps to its raw JSON text
/// (a string keeps its quotes). Top-level keys must be unique.
Result<std::map<std::string, std::string>> ParseJsonObjectRaw(
    std::string_view line);

/// Largest integer a JSON number (a double) holds exactly: 2^53.
inline constexpr uint64_t kMaxExactInteger = uint64_t{1} << 53;

/// The scalar as an unsigned integer, for every number that crosses a
/// process boundary (request fields, shard replies, repl_fetch lengths).
/// Only an integral number in [0, max] converts, so the cast from double is
/// exact; `max` is capped at kMaxExactInteger. A fraction, a negative or
/// out-of-range value, or a non-number is Invalid.
Result<uint64_t> UintFromJson(const JsonScalar& scalar,
                              uint64_t max = kMaxExactInteger);

/// Converts a request's "filter" object into a predicate. Each key is one
/// conjunct name — a leading '!' marks NOT-IN — and its value is the IN-set:
/// an array of scalars, or a bare scalar as an IN-set of one. Strings map to
/// string attributes, integral numbers to int64; bools, nulls, non-integral
/// numbers, empty arrays and duplicate (name, negated) conjuncts are
/// Invalid. Attribute-name validation (control bytes, length) applies.
Result<filter::FilterPredicate> FilterFromWire(const JsonValue& value);

/// Converts a request's "attrs" object into a record attribute set. Each key
/// is one attribute name and its value one scalar (arrays are Invalid —
/// records hold at most one value per attribute). The hardened byte rules
/// are enforced here, at upsert time, so malformed names and values never
/// reach the WAL.
Result<filter::AttrSet> AttrsFromWire(const JsonValue& value);

/// Renders an attribute set as the JSON object AttrsFromWire parses back:
/// {"name": "v", "n": 1}, entries sorted by name, ints as JSON numbers.
std::string AttrsToJson(const filter::AttrSet& attrs);

/// Escapes a string for embedding inside a JSON string literal.
std::string JsonEscape(std::string_view s);

}  // namespace ssjoin::serve

#endif  // SSJOIN_SERVE_WIRE_H_
