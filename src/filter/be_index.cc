#include "filter/be_index.h"

#include <algorithm>

namespace ssjoin::filter {

namespace {

/// Density threshold for the bitmap representation: at >= 1/8 of the
/// universe the O(1)-membership bitmap beats searching a long list.
bool PreferBitmap(size_t count, uint32_t universe) {
  return universe > 0 && count * 8 >= universe;
}

}  // namespace

EligibleSet EligibleSet::All() {
  EligibleSet s;
  s.kind_ = Kind::kAll;
  return s;
}

EligibleSet EligibleSet::None() {
  EligibleSet s;
  s.kind_ = Kind::kNone;
  return s;
}

EligibleSet EligibleSet::FromSorted(std::vector<uint32_t> locals,
                                    uint32_t universe) {
  if (locals.empty()) return None();
  EligibleSet s;
  s.count_ = locals.size();
  s.universe_ = universe;
  if (locals.size() == universe) {
    s.kind_ = Kind::kAll;
    return s;
  }
  if (PreferBitmap(locals.size(), universe)) {
    s.kind_ = Kind::kBitmap;
    s.bitmap_.assign((static_cast<size_t>(universe) + 63) / 64, 0);
    for (uint32_t local : locals) {
      s.bitmap_[local >> 6] |= uint64_t{1} << (local & 63);
    }
  } else {
    s.kind_ = Kind::kList;
    s.list_ = std::move(locals);
  }
  return s;
}

bool EligibleSet::Contains(uint32_t local) const {
  switch (kind_) {
    case Kind::kAll:
      return true;
    case Kind::kNone:
      return false;
    case Kind::kList:
      return std::binary_search(list_.begin(), list_.end(), local);
    case Kind::kBitmap:
      return (local >> 6) < bitmap_.size() &&
             (bitmap_[local >> 6] >> (local & 63)) & 1;
  }
  return false;
}

void EligibleSet::FilterSorted(std::vector<uint32_t>* locals,
                               std::vector<uint32_t>* aligned) const {
  switch (kind_) {
    case Kind::kAll:
      return;
    case Kind::kNone:
      locals->clear();
      if (aligned != nullptr) aligned->clear();
      return;
    case Kind::kList:
    case Kind::kBitmap: {
      size_t out = 0;
      for (size_t i = 0; i < locals->size(); ++i) {
        if (!Contains((*locals)[i])) continue;
        if (aligned != nullptr) (*aligned)[out] = (*aligned)[i];
        (*locals)[out++] = (*locals)[i];
      }
      locals->resize(out);
      if (aligned != nullptr) aligned->resize(out);
      return;
    }
  }
}

AttrIndex AttrIndex::Build(std::span<const AttrSet> docs) {
  AttrIndex index;
  index.doc_count_ = static_cast<uint32_t>(docs.size());
  for (uint32_t local = 0; local < docs.size(); ++local) {
    for (const auto& [name, value] : docs[local].entries()) {
      index.postings_[{name, value}].push_back(local);
    }
  }
  return index;  // Locals were appended in ascending order: already sorted.
}

AttrIndex AttrIndex::Empty(uint32_t doc_count) {
  AttrIndex index;
  index.doc_count_ = doc_count;
  return index;
}

std::span<const uint32_t> AttrIndex::Postings(std::string_view name,
                                              const AttrValue& value) const {
  auto it = postings_.find(Key{std::string(name), value});
  if (it == postings_.end()) return {};
  return it->second;
}

EligibleSet AttrIndex::Eval(const FilterPredicate& pred) const {
  if (pred.empty()) return EligibleSet::All();
  if (doc_count_ == 0) return EligibleSet::None();

  const auto& conjuncts = pred.conjuncts();
  const size_t n = pred.num_positive();

  // Pack every touched posting into (local << 32 | conjunct_index << 1 |
  // sign) entries. A positive conjunct whose values all miss the index
  // contributes nothing — with n > 0 that already dooms every local, so
  // bail out early.
  std::vector<uint64_t> entries;
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    const FilterConjunct& c = conjuncts[ci];
    size_t hits = 0;
    for (const AttrValue& v : c.values) {
      std::span<const uint32_t> post = Postings(c.name, v);
      hits += post.size();
      const uint64_t tag = (static_cast<uint64_t>(ci) << 1) |
                           (c.negated ? 1u : 0u);
      for (uint32_t local : post) {
        entries.push_back((static_cast<uint64_t>(local) << 32) | tag);
      }
    }
    if (!c.negated && hits == 0) return EligibleSet::None();
  }

  if (n == 0) {
    // NOT-IN-only: complement of the union of negated postings.
    std::vector<uint32_t> excluded;
    excluded.reserve(entries.size());
    for (uint64_t e : entries) {
      excluded.push_back(static_cast<uint32_t>(e >> 32));
    }
    std::sort(excluded.begin(), excluded.end());
    excluded.erase(std::unique(excluded.begin(), excluded.end()),
                   excluded.end());
    std::vector<uint32_t> eligible;
    eligible.reserve(doc_count_ - excluded.size());
    size_t xi = 0;
    for (uint32_t local = 0; local < doc_count_; ++local) {
      if (xi < excluded.size() && excluded[xi] == local) {
        ++xi;
      } else {
        eligible.push_back(local);
      }
    }
    return EligibleSet::FromSorted(std::move(eligible), doc_count_);
  }

  // k-of-n counting match: sort groups the entries by local; one scan per
  // local counts positive-conjunct hits (each conjunct contributes at most
  // one entry per local — one value per attribute per doc) and rejects on
  // any negated entry.
  std::sort(entries.begin(), entries.end());
  std::vector<uint32_t> eligible;
  size_t i = 0;
  while (i < entries.size()) {
    const uint32_t local = static_cast<uint32_t>(entries[i] >> 32);
    size_t positive = 0;
    bool negated_hit = false;
    for (; i < entries.size() &&
           static_cast<uint32_t>(entries[i] >> 32) == local;
         ++i) {
      if (entries[i] & 1) {
        negated_hit = true;
      } else {
        ++positive;
      }
    }
    if (!negated_hit && positive == n) eligible.push_back(local);
  }
  return EligibleSet::FromSorted(std::move(eligible), doc_count_);
}

}  // namespace ssjoin::filter
