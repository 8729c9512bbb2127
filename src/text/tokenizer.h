#ifndef SSJOIN_TEXT_TOKENIZER_H_
#define SSJOIN_TEXT_TOKENIZER_H_

#include <array>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

namespace ssjoin::text {

/// \brief Maps a string to its token multiset (Section 2 of the paper:
/// `Set(sigma)`). Tokens are produced in occurrence order; duplicates are
/// preserved (multiset semantics — TokenDictionary turns them into
/// (token, ordinal) pairs per §4.3.1).
class Tokenizer {
 public:
  virtual ~Tokenizer() = default;

  /// Replaces `*tokens` with the token multiset of `s`, in occurrence order,
  /// as views into `s` or into `*buffer`. Tokenizers whose tokens are
  /// substrings of `s` never touch `*buffer`; the others (padded q-grams,
  /// Soundex, positional tokens) overwrite it. The views stay valid while
  /// `s` and `*buffer` are neither changed nor destroyed — typically until
  /// the next call with the same buffer.
  virtual void TokenizeInto(std::string_view s, std::string* buffer,
                            std::vector<std::string_view>* tokens) const = 0;

  /// Owning copies of TokenizeInto's tokens.
  std::vector<std::string> Tokenize(std::string_view s) const;

  /// Human-readable description, e.g. "qgram(q=3)".
  virtual std::string Describe() const = 0;
};

/// \brief All contiguous q-grams of the string ("Mic", "icr", ... for q=3).
///
/// Without padding a string of length L yields L-q+1 q-grams, matching the
/// paper's norm column (the string "Microsoft Corp" has 12 3-grams).
/// Strings shorter than q yield the whole string as a single token, so no
/// string ever maps to an empty set. With `pad=true` the string is extended
/// with q-1 copies of `pad_char` on each end (the Gravano et al. convention),
/// yielding L+q-1 q-grams.
class QGramTokenizer final : public Tokenizer {
 public:
  explicit QGramTokenizer(size_t q, bool pad = false, char pad_char = '$');

  void TokenizeInto(std::string_view s, std::string* buffer,
                    std::vector<std::string_view>* tokens) const override;
  std::string Describe() const override;

  size_t q() const { return q_; }
  bool pad() const { return pad_; }

  /// Number of q-grams this tokenizer produces for a string of length `len`
  /// (the "norm" of Figure 1 when using unit weights).
  size_t NumGrams(size_t len) const;

 private:
  size_t q_;
  bool pad_;
  char pad_char_;
};

/// \brief Splits on delimiter characters (default: whitespace and common
/// punctuation), dropping empty tokens. "Microsoft Corp" -> {Microsoft, Corp}.
class WordTokenizer final : public Tokenizer {
 public:
  explicit WordTokenizer(std::string_view delimiters = " \t\r\n,.;:!?/()[]\"'");

  void TokenizeInto(std::string_view s, std::string* buffer,
                    std::vector<std::string_view>* tokens) const override;
  std::string Describe() const override;

 private:
  std::array<bool, 256> is_delimiter_{};
};

}  // namespace ssjoin::text

#endif  // SSJOIN_TEXT_TOKENIZER_H_
