#ifndef SSJOIN_TEXT_DICTIONARY_H_
#define SSJOIN_TEXT_DICTIONARY_H_

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/logging.h"
#include "common/result.h"

namespace ssjoin::text {

/// Dense id of an interned (token, ordinal) element.
using TokenId = uint32_t;

/// Sentinel for "not interned".
inline constexpr TokenId kInvalidToken = UINT32_MAX;

/// \brief Interns (token, ordinal) elements and tracks document frequencies.
///
/// Implements the multiset-to-set conversion of §4.3.1: the k-th occurrence
/// of token `t` inside one document becomes the pair (t, k), so multiset
/// intersection of documents equals set intersection of their encodings.
/// Document frequency `f_t` counts the number of encoded documents containing
/// the element — the quantity the paper's IDF formula (§5) is based on.
///
/// Layout: token bytes live in one arena, element records in one vector
/// indexed by id, and a flat open-addressing table of (id, hash tag) slots
/// finds an element by (token hash, ordinal) with heterogeneous
/// `string_view` lookup — no per-token allocation on any path. Ordinals are
/// assigned with an epoch-stamped counter per first-occurrence element.
/// Every (t, k > 0) element has its (t, 0) element in the same dictionary
/// (Restore enforces it), which is what lets the read-only encoder count
/// ordinals by first-occurrence id.
class TokenDictionary {
 public:
  TokenDictionary() = default;
  TokenDictionary(const TokenDictionary&) = delete;
  TokenDictionary& operator=(const TokenDictionary&) = delete;
  TokenDictionary(TokenDictionary&&) = default;
  TokenDictionary& operator=(TokenDictionary&&) = default;

  /// Encodes one document's token multiset: appends, in token order, the id
  /// of each (token, ordinal) element to `*ids`, interning new elements and
  /// bumping each element's document frequency once. Counts the document in
  /// num_documents().
  void EncodeInto(std::span<const std::string_view> tokens,
                  std::vector<TokenId>* ids);

  /// Like EncodeInto, but never interns or counts: `*ids` is replaced with
  /// one id per token, kInvalidToken for unknown elements. Safe to run
  /// concurrently with other const calls: it allocates nothing beyond
  /// `*ids` (for documents of up to kReadOnlyStackTokens tokens) and touches
  /// no shared scratch.
  void EncodeReadOnlyInto(std::span<const std::string_view> tokens,
                          std::vector<TokenId>* ids) const;

  /// Adapter over EncodeInto for owned token strings.
  std::vector<TokenId> EncodeDocument(const std::vector<std::string>& tokens);

  /// Id of (token, ordinal), or kInvalidToken.
  TokenId Find(std::string_view token, uint32_t ordinal = 0) const;

  /// Counts again a document encoded before: bumps each element's document
  /// frequency and num_documents() exactly as encoding the same tokens
  /// again would (which would yield these same `ids`). `ids` must be one
  /// EncodeInto output.
  void CountEncoded(std::span<const TokenId> ids);

  /// A dictionary entry as exposed for serialization (snapshot format).
  struct EntryData {
    std::string token;
    uint32_t ordinal;
    uint64_t doc_frequency;
  };

  /// Rebuilds a frozen dictionary from serialized entries: entry `i` becomes
  /// element id `i`, exactly reversing iteration over ids 0..num_elements().
  /// Rejects duplicate (token, ordinal) pairs, and a (token, k > 0) entry
  /// without its (token, 0) entry, which no encoding can produce.
  static Result<TokenDictionary> Restore(std::vector<EntryData> entries,
                                         uint64_t num_documents);

  /// The base token string of an element (without its ordinal). The view is
  /// invalidated by the next interning call.
  std::string_view TokenOf(TokenId id) const {
    SSJOIN_DCHECK(id < entries_.size());
    const Entry& e = entries_[id];
    return std::string_view(bytes_.data() + e.offset, e.length);
  }
  /// The ordinal of an element (0 for first occurrence).
  uint32_t OrdinalOf(TokenId id) const {
    SSJOIN_DCHECK(id < entries_.size());
    return entries_[id].ordinal;
  }
  /// Number of encoded documents containing this element.
  uint64_t DocFrequency(TokenId id) const {
    SSJOIN_DCHECK(id < entries_.size());
    return entries_[id].doc_frequency;
  }
  /// Content hash of the element: FNV-1a over its key bytes — the token,
  /// then for ordinals k > 0 the byte 0x01 and k in decimal. A pure
  /// function of (token, ordinal) — independent of id numbering — so it
  /// serves as the id-free tie key of
  /// core::ElementOrder::ByDecreasingWeightTieKeyed. Computed once, when
  /// the element is interned.
  uint64_t KeyHash(TokenId id) const {
    SSJOIN_DCHECK(id < entries_.size());
    return entries_[id].key_hash;
  }

  size_t num_elements() const { return entries_.size(); }
  uint64_t num_documents() const { return num_documents_; }

  /// Longest document EncodeReadOnlyInto encodes without a heap allocation.
  static constexpr size_t kReadOnlyStackTokens = 256;

 private:
  struct Entry {
    uint64_t token_hash;  // HashString(token)
    uint64_t key_hash;
    uint64_t doc_frequency;
    size_t offset;  // token bytes: bytes_[offset, offset + length)
    uint32_t length;
    uint32_t ordinal;
  };
  /// A table slot: an element id (kInvalidToken when empty) and the high
  /// half of its slot hash, compared before the element is touched.
  struct Slot {
    TokenId id = kInvalidToken;
    uint32_t tag = 0;
  };
  /// Per first-occurrence element: how many occurrences the document
  /// stamped `doc` has had so far.
  struct OrdinalCounter {
    uint32_t doc = 0;
    uint32_t next = 0;
  };

  /// The table slot holding (token, ordinal), or the empty slot where it
  /// would go. The table must be non-empty.
  size_t Probe(std::string_view token, uint64_t slot_hash,
               uint32_t ordinal) const;
  TokenId FindHashed(std::string_view token, uint64_t token_hash,
                     uint32_t ordinal) const;
  /// Id of (token, ordinal), interning it when absent. A new (t, k > 0)
  /// element shares the arena bytes of (t, 0).
  TokenId Intern(std::string_view token, uint64_t token_hash, uint32_t ordinal);
  void Grow();

  std::string bytes_;
  std::vector<Entry> entries_;
  std::vector<Slot> slots_;  // power-of-two size, at most half full
  std::vector<OrdinalCounter> counters_;  // one per element; used for ordinal 0
  uint32_t doc_stamp_ = 0;
  uint64_t num_documents_ = 0;
};

}  // namespace ssjoin::text

#endif  // SSJOIN_TEXT_DICTIONARY_H_
