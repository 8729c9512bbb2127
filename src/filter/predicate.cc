#include "filter/predicate.h"

#include <algorithm>

#include "common/string_util.h"

namespace ssjoin::filter {

Status FilterPredicate::AddConjunct(FilterConjunct conjunct) {
  SSJOIN_RETURN_NOT_OK(ValidateAttrName(conjunct.name));
  if (conjunct.values.empty()) {
    return Status::Invalid("filter conjunct '" + conjunct.name +
                           "' has an empty value set");
  }
  for (const AttrValue& v : conjunct.values) {
    SSJOIN_RETURN_NOT_OK(ValidateAttrValue(v));
  }
  std::sort(conjunct.values.begin(), conjunct.values.end());
  conjunct.values.erase(
      std::unique(conjunct.values.begin(), conjunct.values.end()),
      conjunct.values.end());
  auto key = [](const FilterConjunct& c) {
    return std::make_pair(std::string_view(c.name), c.negated);
  };
  auto it = std::lower_bound(conjuncts_.begin(), conjuncts_.end(), conjunct,
                             [&](const FilterConjunct& a,
                                 const FilterConjunct& b) {
                               return key(a) < key(b);
                             });
  if (it != conjuncts_.end() && key(*it) == key(conjunct)) {
    return Status::Invalid(StringPrintf(
        "duplicate filter conjunct '%s%s'", conjunct.negated ? "!" : "",
        conjunct.name.c_str()));
  }
  conjuncts_.insert(it, std::move(conjunct));
  return Status::OK();
}

bool FilterPredicate::Matches(const AttrSet& attrs) const {
  for (const FilterConjunct& c : conjuncts_) {
    const AttrValue* v = attrs.Find(c.name);
    bool in_set =
        v != nullptr &&
        std::binary_search(c.values.begin(), c.values.end(), *v);
    if (c.negated ? in_set : !in_set) return false;
  }
  return true;
}

std::string FilterPredicate::CanonicalJson() const {
  std::string out = "{";
  for (size_t i = 0; i < conjuncts_.size(); ++i) {
    const FilterConjunct& c = conjuncts_[i];
    if (i > 0) out.push_back(',');
    AppendJsonString(&out, c.negated ? "!" + c.name : c.name);
    out += ":[";
    for (size_t j = 0; j < c.values.size(); ++j) {
      if (j > 0) out.push_back(',');
      const AttrValue& v = c.values[j];
      if (v.type == AttrType::kString) {
        AppendJsonString(&out, v.str);
      } else {
        out += std::to_string(v.i64);
      }
    }
    out += "]";
  }
  out.push_back('}');
  return out;
}

bool operator==(const FilterPredicate& a, const FilterPredicate& b) {
  if (a.conjuncts_.size() != b.conjuncts_.size()) return false;
  for (size_t i = 0; i < a.conjuncts_.size(); ++i) {
    const FilterConjunct& x = a.conjuncts_[i];
    const FilterConjunct& y = b.conjuncts_[i];
    if (x.name != y.name || x.negated != y.negated || x.values != y.values) {
      return false;
    }
  }
  return true;
}

void AppendJsonString(std::string* out, std::string_view s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (c < 0x20) {
          *out += StringPrintf("\\u%04x", c);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
}

}  // namespace ssjoin::filter
