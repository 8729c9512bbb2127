#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "common/hash.h"
#include "common/rng.h"
#include "index/manifest.h"
#include "text/dictionary.h"
#include "text/tokenizer.h"

namespace ssjoin::text {
namespace {

/// EncodeReadOnlyInto over owned token strings.
std::vector<TokenId> EncodeReadOnly(const TokenDictionary& dict,
                                    const std::vector<std::string>& tokens) {
  const std::vector<std::string_view> views(tokens.begin(), tokens.end());
  std::vector<TokenId> ids;
  dict.EncodeReadOnlyInto(views, &ids);
  return ids;
}

TEST(DictionaryTest, InternsAndFinds) {
  TokenDictionary dict;
  auto ids = dict.EncodeDocument({"foo", "bar"});
  ASSERT_EQ(ids.size(), 2u);
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_EQ(dict.Find("foo"), ids[0]);
  EXPECT_EQ(dict.Find("bar"), ids[1]);
  EXPECT_EQ(dict.Find("baz"), kInvalidToken);
  EXPECT_EQ(dict.num_elements(), 2u);
  EXPECT_EQ(dict.num_documents(), 1u);
}

TEST(DictionaryTest, OrdinalsDistinguishDuplicates) {
  TokenDictionary dict;
  auto ids = dict.EncodeDocument({"a", "a", "a", "b"});
  ASSERT_EQ(ids.size(), 4u);
  // The three "a" occurrences become distinct elements (§4.3.1's multi-set
  // to set conversion: {1,1,2} -> {<1,1>,<1,2>,<2,1>}).
  EXPECT_NE(ids[0], ids[1]);
  EXPECT_NE(ids[1], ids[2]);
  EXPECT_EQ(dict.TokenOf(ids[0]), "a");
  EXPECT_EQ(dict.TokenOf(ids[1]), "a");
  EXPECT_EQ(dict.OrdinalOf(ids[0]), 0u);
  EXPECT_EQ(dict.OrdinalOf(ids[1]), 1u);
  EXPECT_EQ(dict.OrdinalOf(ids[2]), 2u);
  EXPECT_EQ(dict.Find("a", 2), ids[2]);
}

TEST(DictionaryTest, SharedTokensAcrossDocumentsReuseIds) {
  TokenDictionary dict;
  auto d1 = dict.EncodeDocument({"x", "y"});
  auto d2 = dict.EncodeDocument({"y", "z"});
  EXPECT_EQ(d1[1], d2[0]);
  EXPECT_EQ(dict.num_elements(), 3u);
  EXPECT_EQ(dict.num_documents(), 2u);
}

TEST(DictionaryTest, DocFrequencyCountsDocumentsNotOccurrences) {
  TokenDictionary dict;
  auto d1 = dict.EncodeDocument({"t", "t"});  // two occurrences, one document
  dict.EncodeDocument({"t"});
  EXPECT_EQ(dict.DocFrequency(d1[0]), 2u);  // (t,0) appears in both docs
  EXPECT_EQ(dict.DocFrequency(d1[1]), 1u);  // (t,1) appears in the first only
}

TEST(DictionaryTest, MultisetIntersectionViaOrdinals) {
  TokenDictionary dict;
  auto d1 = dict.EncodeDocument({"a", "a", "b"});
  auto d2 = dict.EncodeDocument({"a", "a", "a"});
  std::sort(d1.begin(), d1.end());
  std::sort(d2.begin(), d2.end());
  std::vector<TokenId> inter;
  std::set_intersection(d1.begin(), d1.end(), d2.begin(), d2.end(),
                        std::back_inserter(inter));
  // multiset intersection of {a,a,b} and {a,a,a} is {a,a}.
  EXPECT_EQ(inter.size(), 2u);
}

TEST(DictionaryTest, ReadOnlyEncodeDoesNotIntern) {
  TokenDictionary dict;
  dict.EncodeDocument({"known"});
  auto ids = EncodeReadOnly(dict, {"known", "unknown", "known"});
  ASSERT_EQ(ids.size(), 3u);
  EXPECT_NE(ids[0], kInvalidToken);
  EXPECT_EQ(ids[1], kInvalidToken);
  // second "known" occurrence -> ordinal 1, never interned -> invalid.
  EXPECT_EQ(ids[2], kInvalidToken);
  EXPECT_EQ(dict.num_elements(), 1u);
  EXPECT_EQ(dict.num_documents(), 1u);
}

TEST(DictionaryTest, EmptyDocument) {
  TokenDictionary dict;
  auto ids = dict.EncodeDocument({});
  EXPECT_TRUE(ids.empty());
  EXPECT_EQ(dict.num_documents(), 1u);
}

TEST(DictionaryTest, RestoreRejectsOrdinalWithoutFirstOccurrence) {
  std::vector<TokenDictionary::EntryData> entries = {{"a", 0, 1}, {"b", 1, 1}};
  auto dict = TokenDictionary::Restore(std::move(entries), 1);
  ASSERT_FALSE(dict.ok());
  EXPECT_NE(dict.status().message().find("ordinal-0"), std::string::npos)
      << dict.status().ToString();
}

TEST(DictionaryTest, KeyHashIsFnvOfTheKeyBytes) {
  TokenDictionary dict;
  std::vector<std::string> doc(12, "ab");
  auto ids = dict.EncodeDocument(doc);
  EXPECT_EQ(dict.KeyHash(ids[0]), HashString("ab"));
  EXPECT_EQ(dict.KeyHash(ids[1]), HashString(std::string("ab\x01") + "1"));
  EXPECT_EQ(dict.KeyHash(ids[11]), HashString(std::string("ab\x01") + "11"));
}

// ---------------------------------------------------------------------------
// Differential against a naive oracle: the map-based interning the flat
// table replaced, keyed by the element's key bytes (token, then 0x01 and
// the decimal ordinal for repeats).
// ---------------------------------------------------------------------------

class NaiveDictionary {
 public:
  struct Element {
    std::string token;
    uint32_t ordinal;
    uint64_t doc_frequency;
  };

  static std::string MakeKey(std::string_view token, uint32_t ordinal) {
    std::string key(token);
    if (ordinal > 0) key += "\x01" + std::to_string(ordinal);
    return key;
  }

  std::vector<TokenId> Encode(const std::vector<std::string>& tokens) {
    std::vector<TokenId> ids;
    std::map<std::string, uint32_t> counts;
    for (const std::string& t : tokens) {
      const uint32_t ordinal = counts[t]++;
      auto [it, inserted] =
          index_.emplace(MakeKey(t, ordinal), static_cast<TokenId>(elements_.size()));
      if (inserted) elements_.push_back({t, ordinal, 0});
      ids.push_back(it->second);
    }
    for (TokenId id : ids) ++elements_[id].doc_frequency;
    ++num_documents_;
    return ids;
  }

  std::vector<TokenId> EncodeReadOnly(const std::vector<std::string>& tokens) const {
    std::vector<TokenId> ids;
    std::map<std::string, uint32_t> counts;
    for (const std::string& t : tokens) {
      auto it = index_.find(MakeKey(t, counts[t]++));
      ids.push_back(it == index_.end() ? kInvalidToken : it->second);
    }
    return ids;
  }

  const std::vector<Element>& elements() const { return elements_; }
  uint64_t num_documents() const { return num_documents_; }

 private:
  std::map<std::string, TokenId> index_;
  std::vector<Element> elements_;
  uint64_t num_documents_ = 0;
};

std::vector<TokenDictionary::EntryData> EntriesOf(const TokenDictionary& dict) {
  std::vector<TokenDictionary::EntryData> out;
  for (TokenId id = 0; id < dict.num_elements(); ++id) {
    out.push_back({std::string(dict.TokenOf(id)), dict.OrdinalOf(id), dict.DocFrequency(id)});
  }
  return out;
}

/// The bytes a manifest holding `entries` serializes to.
std::string ManifestBytes(std::vector<TokenDictionary::EntryData> entries, uint64_t docs) {
  index::Manifest m;
  m.dict_entries = std::move(entries);
  m.dict_num_documents = docs;
  const std::string path = (std::filesystem::temp_directory_path() /
                            ("dict_diff_" + std::to_string(::getpid()) + ".manifest"))
                               .string();
  EXPECT_TRUE(index::SaveManifest(m, path).ok());
  std::ifstream in(path, std::ios::binary);
  std::stringstream bytes;
  bytes << in.rdbuf();
  std::filesystem::remove(path);
  return bytes.str();
}

void ExpectSameDictionary(const TokenDictionary& dict, const NaiveDictionary& naive) {
  ASSERT_EQ(dict.num_elements(), naive.elements().size());
  EXPECT_EQ(dict.num_documents(), naive.num_documents());
  for (TokenId id = 0; id < dict.num_elements(); ++id) {
    const NaiveDictionary::Element& e = naive.elements()[id];
    ASSERT_EQ(dict.TokenOf(id), e.token) << "id " << id;
    ASSERT_EQ(dict.OrdinalOf(id), e.ordinal) << "id " << id;
    ASSERT_EQ(dict.DocFrequency(id), e.doc_frequency) << "id " << id;
    ASSERT_EQ(dict.KeyHash(id), HashString(NaiveDictionary::MakeKey(e.token, e.ordinal)))
        << "id " << id;
    ASSERT_EQ(dict.Find(e.token, e.ordinal), id);
  }
  std::vector<TokenDictionary::EntryData> naive_entries;
  for (const NaiveDictionary::Element& e : naive.elements()) {
    naive_entries.push_back({e.token, e.ordinal, e.doc_frequency});
  }
  EXPECT_EQ(ManifestBytes(EntriesOf(dict), dict.num_documents()),
            ManifestBytes(naive_entries, naive.num_documents()));
}

/// Strings over a small alphabet (dense repeats) with bytes 0x80-0xFF,
/// plus the edge cases: empty, shorter than q, and one q-gram repeated
/// more than ten times (two-digit ordinals).
std::vector<std::string> DifferentialCorpus(uint64_t seed, size_t n) {
  std::vector<std::string> out = {"", "a", "ab", std::string(40, 'a'),
                                  "abababababababababababababab",
                                  "\xc3\xa9\xc3\xa9\xc3\xa9 caf\xc3\xa9"};
  Rng rng(seed);
  const std::string alphabet = std::string("abc d,") + "\x80\xfe\xff";
  while (out.size() < n) {
    std::string s;
    const size_t len = rng.Uniform(24);
    for (size_t i = 0; i < len; ++i) s.push_back(alphabet[rng.Uniform(alphabet.size())]);
    out.push_back(s);
  }
  return out;
}

TEST(DictionaryDifferential, MatchesNaiveOracle) {
  const QGramTokenizer qgrams(3);
  const QGramTokenizer padded(3, /*pad=*/true);
  const WordTokenizer words;
  for (const Tokenizer* tok : std::vector<const Tokenizer*>{&qgrams, &padded, &words}) {
    for (uint64_t seed : {1, 2, 3}) {
      SCOPED_TRACE(tok->Describe() + " seed " + std::to_string(seed));
      const std::vector<std::string> corpus = DifferentialCorpus(seed, 300);
      TokenDictionary dict;
      NaiveDictionary naive;
      std::string buffer;
      std::vector<std::string_view> views;
      std::vector<TokenId> ids;
      for (const std::string& s : corpus) {
        tok->TokenizeInto(s, &buffer, &views);
        ids.clear();
        dict.EncodeInto(views, &ids);
        ASSERT_EQ(ids, naive.Encode(tok->Tokenize(s))) << s;
      }
      ExpectSameDictionary(dict, naive);

      // Read-only encoding of fresh strings, against the live dictionary
      // and against its Restore round trip.
      auto restored = TokenDictionary::Restore(EntriesOf(dict), dict.num_documents());
      ASSERT_TRUE(restored.ok()) << restored.status().ToString();
      ExpectSameDictionary(*restored, naive);
      for (const std::string& q : DifferentialCorpus(seed + 100, 200)) {
        const std::vector<TokenId> want = naive.EncodeReadOnly(tok->Tokenize(q));
        tok->TokenizeInto(q, &buffer, &views);
        dict.EncodeReadOnlyInto(views, &ids);
        ASSERT_EQ(ids, want) << q;
        restored->EncodeReadOnlyInto(views, &ids);
        ASSERT_EQ(ids, want) << q;
      }
      ExpectSameDictionary(dict, naive);  // read-only encoding changed nothing
    }
  }
}

TEST(DictionaryDifferential, ReadOnlyEncodeOfLongDocuments) {
  // Past kReadOnlyStackTokens the occurrence counts move to the heap; the
  // ids must not change.
  TokenDictionary dict;
  NaiveDictionary naive;
  std::vector<std::string> doc;
  for (size_t i = 0; i < 3 * TokenDictionary::kReadOnlyStackTokens; ++i) {
    doc.push_back("t" + std::to_string(i % 97));
  }
  dict.EncodeDocument(doc);
  naive.Encode(doc);
  doc.push_back("unseen");
  EXPECT_EQ(EncodeReadOnly(dict, doc), naive.EncodeReadOnly(doc));
}

TEST(DictionaryDifferential, CountEncodedEqualsEncodingAgain) {
  // A self-join's Prep encodes its strings once and counts them twice.
  const QGramTokenizer tok(2);
  const std::vector<std::string> corpus = DifferentialCorpus(9, 240);
  TokenDictionary twice;
  TokenDictionary once;
  NaiveDictionary naive;
  std::vector<std::vector<TokenId>> ids;
  for (const std::string& s : corpus) {
    twice.EncodeDocument(tok.Tokenize(s));
    ids.push_back(once.EncodeDocument(tok.Tokenize(s)));
    naive.Encode(tok.Tokenize(s));
  }
  for (const std::string& s : corpus) {
    EXPECT_EQ(twice.EncodeDocument(tok.Tokenize(s)), ids[&s - corpus.data()]);
    naive.Encode(tok.Tokenize(s));
  }
  for (const std::vector<TokenId>& doc : ids) once.CountEncoded(doc);
  ExpectSameDictionary(twice, naive);
  ExpectSameDictionary(once, naive);
}

TEST(DictionaryConcurrency, ConcurrentReadOnlyEncodeAgreesWithSerial) {
  // The lookup path: readers encode queries against one const dictionary at
  // once (under a shared lock in the index); each must see the serial ids.
  const QGramTokenizer tok(3);
  TokenDictionary dict;
  for (const std::string& s : DifferentialCorpus(5, 400)) dict.EncodeDocument(tok.Tokenize(s));
  const std::vector<std::string> queries = DifferentialCorpus(6, 200);
  std::vector<std::vector<TokenId>> want;
  std::vector<std::vector<TokenId>> want_first;  // Find(token) of each token
  for (const std::string& q : queries) {
    want.push_back(EncodeReadOnly(dict, tok.Tokenize(q)));
    want_first.emplace_back();
    for (const std::string& t : tok.Tokenize(q)) want_first.back().push_back(dict.Find(t));
  }

  std::vector<std::thread> readers;
  std::vector<int> mismatches(4, 0);
  for (size_t r = 0; r < mismatches.size(); ++r) {
    readers.emplace_back([&, r] {
      std::string buffer;
      std::vector<std::string_view> views;
      std::vector<TokenId> ids;
      for (int round = 0; round < 20; ++round) {
        for (size_t i = 0; i < queries.size(); ++i) {
          tok.TokenizeInto(queries[i], &buffer, &views);
          dict.EncodeReadOnlyInto(views, &ids);
          if (ids != want[i]) ++mismatches[r];
          for (size_t t = 0; t < views.size(); ++t) {
            if (dict.Find(views[t]) != want_first[i][t]) ++mismatches[r];
          }
        }
      }
    });
  }
  for (std::thread& t : readers) t.join();
  for (int m : mismatches) EXPECT_EQ(m, 0);
}

}  // namespace
}  // namespace ssjoin::text
