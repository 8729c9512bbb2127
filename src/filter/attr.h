#ifndef SSJOIN_FILTER_ATTR_H_
#define SSJOIN_FILTER_ATTR_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/payload.h"
#include "common/result.h"

namespace ssjoin::filter {

/// \brief The typed attribute values records can carry: strings and 64-bit
/// integers. Equality is exact and type-sensitive (Int64(1) != String("1")).
enum class AttrType : uint8_t { kString = 0, kInt64 = 1 };

struct AttrValue {
  AttrType type = AttrType::kString;
  std::string str;  // valid when type == kString
  int64_t i64 = 0;  // valid when type == kInt64

  static AttrValue String(std::string s) {
    AttrValue v;
    v.type = AttrType::kString;
    v.str = std::move(s);
    return v;
  }
  static AttrValue Int64(int64_t x) {
    AttrValue v;
    v.type = AttrType::kInt64;
    v.i64 = x;
    return v;
  }

  friend bool operator==(const AttrValue& a, const AttrValue& b) {
    if (a.type != b.type) return false;
    return a.type == AttrType::kString ? a.str == b.str : a.i64 == b.i64;
  }
  friend bool operator!=(const AttrValue& a, const AttrValue& b) {
    return !(a == b);
  }
  /// Total order (type first, then value) — the canonical sort used by
  /// IN-sets and their canonical JSON.
  friend bool operator<(const AttrValue& a, const AttrValue& b) {
    if (a.type != b.type) return a.type < b.type;
    return a.type == AttrType::kString ? a.str < b.str : a.i64 < b.i64;
  }

  /// Display form: strings as-is, ints in decimal.
  std::string ToString() const;
};

/// \name Attribute validation (the hardened-string rules of serve/wire.cc)
/// Names must be nonempty, at most 256 bytes, contain no NUL or raw control
/// bytes (< 0x20) and no DEL (0x7f), and must not start with '!' — the wire
/// filter syntax reserves a leading '!' for NOT-IN conjuncts. String values
/// follow the same byte rules (any length). Enforced at upsert time so
/// attributes survive both WAL replay and the NDJSON dump path.
/// @{
Status ValidateAttrName(std::string_view name);
Status ValidateAttrStringValue(std::string_view value);
Status ValidateAttrValue(const AttrValue& value);
/// @}

/// \brief The structured attributes of one record: a small set of
/// (name, value) pairs, at most one value per attribute name, kept sorted
/// by name so encodings and comparisons are canonical.
class AttrSet {
 public:
  /// Inserts or replaces `name`. Validates name and value.
  Status Set(std::string name, AttrValue value);

  /// The value of `name`, or nullptr when absent.
  const AttrValue* Find(std::string_view name) const;

  bool empty() const { return entries_.empty(); }
  size_t size() const { return entries_.size(); }
  const std::vector<std::pair<std::string, AttrValue>>& entries() const {
    return entries_;
  }

  friend bool operator==(const AttrSet& a, const AttrSet& b) {
    return a.entries_ == b.entries_;
  }
  friend bool operator!=(const AttrSet& a, const AttrSet& b) {
    return !(a == b);
  }

  /// \name Payload encoding (shared by segment files and the WAL)
  /// count, then per entry: name Str, type U8, value (Str | U64 two's
  /// complement). Decode validates, so a corrupted file cannot smuggle
  /// control bytes past the upsert-time checks.
  /// @{
  void EncodeTo(common::PayloadWriter* w) const;
  static Status DecodeFrom(common::PayloadReader* r, AttrSet* out);
  /// @}

 private:
  std::vector<std::pair<std::string, AttrValue>> entries_;
};

}  // namespace ssjoin::filter

#endif  // SSJOIN_FILTER_ATTR_H_
