#ifndef SSJOIN_FILTER_PREDICATE_H_
#define SSJOIN_FILTER_PREDICATE_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "filter/attr.h"

namespace ssjoin::filter {

/// \brief One conjunct of a filter: `name IN {values}` or
/// `name NOT IN {values}`. Values are kept sorted and deduplicated so the
/// canonical encoding is unambiguous.
///
/// Semantics over a record's AttrSet (FilterPredicate::Matches, the single
/// source of truth for filtered lookups and their post-filter oracle):
///  - positive: the record has `name` and its value is in the set;
///  - negated:  the record lacks `name` OR its value is not in the set.
struct FilterConjunct {
  std::string name;
  bool negated = false;
  std::vector<AttrValue> values;
};

/// \brief A conjunction of IN / NOT-IN conjuncts over record attributes.
/// An empty predicate matches every record.
class FilterPredicate {
 public:
  /// Validates and canonicalizes (sorts + dedups values), then appends.
  /// Rejects empty value sets and duplicate (name, negated) conjuncts.
  Status AddConjunct(FilterConjunct conjunct);

  bool empty() const { return conjuncts_.empty(); }
  const std::vector<FilterConjunct>& conjuncts() const { return conjuncts_; }
  /// Exact match semantics.
  bool Matches(const AttrSet& attrs) const;

  /// Canonical JSON object, e.g. `{"country":["DE","FR"],"!status":[3]}`:
  /// conjuncts sorted by (name, negated), values sorted, ints as JSON
  /// numbers, strings as JSON strings. Used verbatim as the wire `"filter"`
  /// value in coordinator fan-out, so equal predicates send equal bytes.
  /// Empty predicate encodes as "{}".
  std::string CanonicalJson() const;

  friend bool operator==(const FilterPredicate& a, const FilterPredicate& b);
  friend bool operator!=(const FilterPredicate& a, const FilterPredicate& b) {
    return !(a == b);
  }

 private:
  std::vector<FilterConjunct> conjuncts_;  // sorted by (name, negated)
};

/// Appends `s` as a double-quoted JSON string with the same escaping rules
/// as serve's JsonEscape (attribute bytes are already control-free, but the
/// encoder stays safe for arbitrary input).
void AppendJsonString(std::string* out, std::string_view s);

}  // namespace ssjoin::filter

#endif  // SSJOIN_FILTER_PREDICATE_H_
