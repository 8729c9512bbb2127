#include "text/tokenizer.h"

#include "common/logging.h"
#include "common/string_util.h"

namespace ssjoin::text {

std::vector<std::string> Tokenizer::Tokenize(std::string_view s) const {
  std::string buffer;
  std::vector<std::string_view> views;
  TokenizeInto(s, &buffer, &views);
  return std::vector<std::string>(views.begin(), views.end());
}

QGramTokenizer::QGramTokenizer(size_t q, bool pad, char pad_char)
    : q_(q), pad_(pad), pad_char_(pad_char) {
  SSJOIN_CHECK(q >= 1);
}

void QGramTokenizer::TokenizeInto(std::string_view s, std::string* buffer,
                                  std::vector<std::string_view>* tokens) const {
  tokens->clear();
  if (pad_) {
    buffer->assign(q_ - 1, pad_char_);
    buffer->append(s);
    buffer->append(q_ - 1, pad_char_);
    s = *buffer;
  } else if (s.size() < q_) {
    if (!s.empty()) tokens->push_back(s);
    return;
  }
  tokens->reserve(s.size() - q_ + 1);
  for (size_t i = 0; i + q_ <= s.size(); ++i) tokens->push_back(s.substr(i, q_));
}

std::string QGramTokenizer::Describe() const {
  return StringPrintf("qgram(q=%zu%s)", q_, pad_ ? ", padded" : "");
}

size_t QGramTokenizer::NumGrams(size_t len) const {
  if (pad_) return len + q_ - 1;
  if (len == 0) return 0;
  if (len < q_) return 1;
  return len - q_ + 1;
}

WordTokenizer::WordTokenizer(std::string_view delimiters) {
  for (unsigned char c : delimiters) is_delimiter_[c] = true;
}

void WordTokenizer::TokenizeInto(std::string_view s, std::string* /*buffer*/,
                                 std::vector<std::string_view>* tokens) const {
  tokens->clear();
  size_t start = 0;
  for (size_t i = 0; i <= s.size(); ++i) {
    if (i == s.size() || is_delimiter_[static_cast<unsigned char>(s[i])]) {
      if (i > start) tokens->push_back(s.substr(start, i - start));
      start = i + 1;
    }
  }
}

std::string WordTokenizer::Describe() const { return "word"; }

}  // namespace ssjoin::text
