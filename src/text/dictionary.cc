#include "text/dictionary.h"

#include <algorithm>
#include <array>
#include <charconv>
#include <cstring>
#include <memory>

#include "common/hash.h"

namespace ssjoin::text {

namespace {

/// Table hash of (token, ordinal): the slot is its low bits, the tag its
/// high half.
uint64_t SlotHash(uint64_t token_hash, uint32_t ordinal) {
  return Mix64(token_hash ^ (static_cast<uint64_t>(ordinal) * 0x9e3779b97f4a7c15ULL));
}

/// FNV-1a over the element's key bytes, continued from the token's hash:
/// the token, then for ordinals k > 0 the byte 0x01 and k in decimal. A
/// token that itself ends in 0x01 and digits can share a key hash with a
/// repeat of its prefix; the two stay distinct elements, and tie-keyed
/// orders break the tie by id.
uint64_t KeyHashOf(uint64_t token_hash, uint32_t ordinal) {
  if (ordinal == 0) return token_hash;
  char digits[10];
  const auto [end, ec] = std::to_chars(digits, digits + sizeof(digits), ordinal);
  (void)ec;
  return HashStringFrom(HashStringFrom(token_hash, std::string_view("\x01", 1)),
                        std::string_view(digits, static_cast<size_t>(end - digits)));
}

}  // namespace

size_t TokenDictionary::Probe(std::string_view token, uint64_t slot_hash,
                              uint32_t ordinal) const {
  const size_t mask = slots_.size() - 1;
  const auto tag = static_cast<uint32_t>(slot_hash >> 32);
  for (size_t i = slot_hash & mask;; i = (i + 1) & mask) {
    const Slot s = slots_[i];
    if (s.id == kInvalidToken) return i;
    if (s.tag != tag) continue;
    const Entry& e = entries_[s.id];
    if (e.ordinal == ordinal && e.length == token.size() &&
        (token.empty() ||
         std::memcmp(bytes_.data() + e.offset, token.data(), token.size()) == 0)) {
      return i;
    }
  }
}

TokenId TokenDictionary::FindHashed(std::string_view token, uint64_t token_hash,
                                    uint32_t ordinal) const {
  if (slots_.empty()) return kInvalidToken;
  return slots_[Probe(token, SlotHash(token_hash, ordinal), ordinal)].id;
}

TokenId TokenDictionary::Find(std::string_view token, uint32_t ordinal) const {
  return FindHashed(token, HashString(token), ordinal);
}

void TokenDictionary::Grow() {
  std::vector<Slot> next(slots_.empty() ? 64 : 2 * slots_.size());
  const size_t mask = next.size() - 1;
  for (TokenId id = 0; id < entries_.size(); ++id) {
    const uint64_t h = SlotHash(entries_[id].token_hash, entries_[id].ordinal);
    size_t i = h & mask;
    while (next[i].id != kInvalidToken) i = (i + 1) & mask;
    next[i] = Slot{id, static_cast<uint32_t>(h >> 32)};
  }
  slots_.swap(next);
}

TokenId TokenDictionary::Intern(std::string_view token, uint64_t token_hash,
                                uint32_t ordinal) {
  if (2 * (entries_.size() + 1) > slots_.size()) Grow();
  const uint64_t h = SlotHash(token_hash, ordinal);
  const size_t slot = Probe(token, h, ordinal);
  if (slots_[slot].id != kInvalidToken) return slots_[slot].id;
  SSJOIN_CHECK(token.size() <= UINT32_MAX && entries_.size() < kInvalidToken);
  const TokenId base = ordinal > 0 ? FindHashed(token, token_hash, 0) : kInvalidToken;
  size_t offset = 0;
  if (base != kInvalidToken) {
    offset = entries_[base].offset;
  } else {
    offset = bytes_.size();
    bytes_.append(token);
  }
  const auto id = static_cast<TokenId>(entries_.size());
  entries_.push_back(Entry{token_hash, KeyHashOf(token_hash, ordinal), 0, offset,
                           static_cast<uint32_t>(token.size()), ordinal});
  counters_.emplace_back();
  slots_[slot] = Slot{id, static_cast<uint32_t>(h >> 32)};
  return id;
}

void TokenDictionary::EncodeInto(std::span<const std::string_view> tokens,
                                 std::vector<TokenId>* ids) {
  if (++doc_stamp_ == 0) {  // the stamp wrapped: forget every old document
    for (OrdinalCounter& c : counters_) c.doc = 0;
    doc_stamp_ = 1;
  }
  for (std::string_view token : tokens) {
    const uint64_t h = HashString(token);
    TokenId id = Intern(token, h, 0);
    OrdinalCounter& c = counters_[id];
    if (c.doc != doc_stamp_) {
      c.doc = doc_stamp_;
      c.next = 1;
    } else {
      const uint32_t ordinal = c.next++;
      id = Intern(token, h, ordinal);
    }
    // Ordinals make every element of one document distinct, so each
    // occurrence is one document containing the element.
    ++entries_[id].doc_frequency;
    ids->push_back(id);
  }
  ++num_documents_;
}

void TokenDictionary::EncodeReadOnlyInto(std::span<const std::string_view> tokens,
                                         std::vector<TokenId>* ids) const {
  ids->assign(tokens.size(), kInvalidToken);
  if (entries_.empty()) return;
  // This document's occurrence counts, keyed by first-occurrence id, in a
  // call-local open-addressing table: on the stack unless the document is
  // longer than kReadOnlyStackTokens.
  struct Count {
    TokenId id;
    uint32_t seen;
  };
  size_t capacity = 16;
  while (capacity < 2 * tokens.size()) capacity *= 2;
  std::array<Count, 2 * kReadOnlyStackTokens> local;
  std::unique_ptr<Count[]> heap;
  Count* counts = local.data();
  if (capacity > local.size()) {
    heap = std::make_unique<Count[]>(capacity);
    counts = heap.get();
  }
  std::fill(counts, counts + capacity, Count{kInvalidToken, 0});
  const size_t mask = capacity - 1;
  for (size_t t = 0; t < tokens.size(); ++t) {
    const uint64_t h = HashString(tokens[t]);
    const TokenId first = FindHashed(tokens[t], h, 0);
    if (first == kInvalidToken) continue;  // so is every later occurrence
    size_t i = Mix64(first) & mask;
    while (counts[i].id != kInvalidToken && counts[i].id != first) i = (i + 1) & mask;
    if (counts[i].id == kInvalidToken) {
      counts[i] = Count{first, 1};
      (*ids)[t] = first;
    } else {
      (*ids)[t] = FindHashed(tokens[t], h, counts[i].seen++);
    }
  }
}

std::vector<TokenId> TokenDictionary::EncodeDocument(
    const std::vector<std::string>& tokens) {
  const std::vector<std::string_view> views(tokens.begin(), tokens.end());
  std::vector<TokenId> ids;
  EncodeInto(views, &ids);
  return ids;
}

void TokenDictionary::CountEncoded(std::span<const TokenId> ids) {
  for (TokenId id : ids) ++entries_[id].doc_frequency;
  ++num_documents_;
}

Result<TokenDictionary> TokenDictionary::Restore(std::vector<EntryData> entries,
                                                 uint64_t num_documents) {
  TokenDictionary dict;
  dict.entries_.reserve(entries.size());
  dict.counters_.reserve(entries.size());
  for (const EntryData& e : entries) {
    const size_t expected = dict.entries_.size();
    const TokenId id = dict.Intern(e.token, HashString(e.token), e.ordinal);
    if (id != expected) {
      return Status::Invalid("dictionary restore: duplicate element '" + e.token +
                             "' ordinal " + std::to_string(e.ordinal));
    }
    dict.entries_[id].doc_frequency = e.doc_frequency;
  }
  for (const EntryData& e : entries) {
    if (e.ordinal > 0 && dict.Find(e.token, 0) == kInvalidToken) {
      return Status::Invalid("dictionary restore: element '" + e.token +
                             "' ordinal " + std::to_string(e.ordinal) +
                             " has no ordinal-0 element");
    }
  }
  dict.num_documents_ = num_documents;
  return dict;
}

}  // namespace ssjoin::text
