// Tests for the analyzer and the BM25 inverted index.

#include <gtest/gtest.h>

#include <algorithm>
#include <cctype>
#include <cmath>
#include <iterator>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "index/analyzer.h"
#include "index/inverted_index.h"
#include "util/hash.h"
#include "util/rng.h"

namespace deepsurf {
namespace index {
namespace {

TEST(AnalyzerTest, TokenizeLowercasesAndSplits) {
  EXPECT_EQ(Tokenize("Hello, World-99!"),
            (std::vector<std::string>{"hello", "world", "99"}));
}

TEST(AnalyzerTest, ShortAndLongTokensDropped) {
  auto tokens =
      Tokenize("a ab " + std::string(41, 'x') + " " + std::string(40, 'Y'));
  EXPECT_EQ(tokens, (std::vector<std::string>{"ab", std::string(40, 'y')}));
}

TEST(AnalyzerTest, ContentTokensDropStopWords) {
  EXPECT_EQ(ContentTokens("the quick fox and the dog"),
            (std::vector<std::string>{"quick", "fox", "dog"}));
}

// The analyzer as it stood before its one-pass rewrite: locale <cctype>
// classification, one appended char at a time, and a std::set of stop
// words. The fuzz cases below hold the rewrite to it byte for byte.
namespace reference {

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::string current;
  for (char c : text) {
    if (std::isalnum(static_cast<unsigned char>(c))) {
      current.push_back(
          static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
    } else if (!current.empty()) {
      if (current.size() >= 2 && current.size() <= 40) {
        out.push_back(current);
      }
      current.clear();
    }
  }
  if (current.size() >= 2 && current.size() <= 40) out.push_back(current);
  return out;
}

const std::set<std::string, std::less<>>& StopWords() {
  static const std::set<std::string, std::less<>> kStopWords = {
      "a",    "an",   "and",  "are",   "as",    "at",    "be",   "been",
      "but",  "by",   "can",  "do",    "for",   "from",  "had",  "has",
      "have", "he",   "her",  "his",   "if",    "in",    "into", "is",
      "it",   "its",  "may",  "more",  "most",  "no",    "not",  "of",
      "on",   "or",   "our",  "she",   "so",    "than",  "that", "the",
      "their","them", "then", "there", "these", "they",  "this", "to",
      "was",  "we",   "were", "what",  "when",  "which", "who",  "will",
      "with", "would","you",  "your",  "all",   "also",  "any",  "each",
      "how",  "new",  "now",  "one",   "only",  "other", "out",  "per",
      "some", "such", "up",   "us",    "use",   "very",  "via",
  };
  return kStopWords;
}

bool IsStopWord(std::string_view token) {
  return StopWords().count(token) > 0;
}

std::vector<std::string> ContentTokens(std::string_view text) {
  std::vector<std::string> out;
  for (auto& tok : Tokenize(text)) {
    if (!IsStopWord(tok)) out.push_back(std::move(tok));
  }
  return out;
}

}  // namespace reference

/// A random alphanumeric run of `len` characters, mixed case.
std::string AlnumRun(Rng* rng, size_t len) {
  static constexpr char kAlnum[] =
      "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789";
  std::string out;
  for (size_t i = 0; i < len; ++i) {
    out.push_back(kAlnum[rng->Uniform(sizeof(kAlnum) - 1)]);
  }
  return out;
}

/// Random analyzer input: arbitrary bytes (>= 0x80 and NUL included),
/// alphanumeric runs at and around both length limits, and stop words
/// in random case, joined by random separators.
std::string RandomAnalyzerText(Rng* rng) {
  static constexpr size_t kRunLengths[] = {1, 2, 3, 5, 6, 39, 40, 41, 80};
  const auto& stop_words = reference::StopWords();
  std::string out;
  size_t pieces = rng->Uniform(24);
  for (size_t i = 0; i < pieces; ++i) {
    switch (rng->Uniform(5)) {
      case 0:
        for (size_t n = rng->Uniform(4) + 1; n > 0; --n) {
          out.push_back(static_cast<char>(rng->Uniform(256)));
        }
        break;
      case 1:
        for (size_t n = rng->Uniform(3) + 1; n > 0; --n) {
          out.push_back(static_cast<char>(0x80 + rng->Uniform(128)));
        }
        break;
      case 2:
        out += AlnumRun(rng, kRunLengths[rng->Uniform(std::size(kRunLengths))]);
        break;
      case 3: {
        auto it = stop_words.begin();
        std::advance(it, rng->Uniform(stop_words.size()));
        std::string word = *it;
        for (char& c : word) {
          if (rng->Bernoulli(0.3)) c = static_cast<char>(c - 'a' + 'A');
        }
        out += word;
        break;
      }
      default: {
        static constexpr char kSeparators[] = " ,.-\n\t'/";
        out.push_back(kSeparators[rng->Uniform(sizeof(kSeparators) - 1)]);
        break;
      }
    }
  }
  return out;
}

class AnalyzerFuzzTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(AnalyzerFuzzTest, MatchesReferenceAnalyzer) {
  Rng rng(GetParam());
  for (int round = 0; round < 2000; ++round) {
    std::string text = RandomAnalyzerText(&rng);
    auto tokens = reference::Tokenize(text);
    ASSERT_EQ(Tokenize(text), tokens) << "input: " << text;
    ASSERT_EQ(ContentTokens(text), reference::ContentTokens(text))
        << "input: " << text;
    for (const auto& tok : tokens) {
      ASSERT_EQ(IsStopWord(tok), reference::IsStopWord(tok)) << tok;
    }
    // Raw (unfolded, possibly non-alphanumeric) text as a token.
    ASSERT_EQ(IsStopWord(text), reference::IsStopWord(text)) << text;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, AnalyzerFuzzTest,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

TEST(AnalyzerTest, StopWords) {
  EXPECT_FALSE(IsStopWord("honda"));
  size_t stop_words = 0;
  for (const auto& word : reference::StopWords()) {
    EXPECT_TRUE(IsStopWord(word)) << word;
    ++stop_words;
    // Near misses: one letter more or less, at either end, and the
    // word in upper case.
    std::string upper = word;
    for (char& c : upper) c = static_cast<char>(c - 'a' + 'A');
    for (const std::string& miss :
         {word + "s", "x" + word, word.substr(1),
          word.substr(0, word.size() - 1), upper}) {
      EXPECT_EQ(IsStopWord(miss), reference::IsStopWord(miss)) << miss;
    }
  }
  EXPECT_EQ(stop_words, 79u);
  for (const char* miss : {"thes", "theirs", "wh", "th", "yours", "ours",
                           "vias", "whic", "abc", "zzzzz", "", "The"}) {
    EXPECT_FALSE(IsStopWord(miss)) << miss;
    EXPECT_FALSE(reference::IsStopWord(miss)) << miss;
  }
}

class IndexTest : public ::testing::Test {
 protected:
  DocId Add(const std::string& url, const std::string& title,
            const std::string& body, bool deep = false,
            const std::string& host = "h.com") {
    return *index_.AddDocument(url, title, body, deep, host);
  }

  InvertedIndex index_;
};

TEST_F(IndexTest, AddAndSearch) {
  Add("u1", "used cars", "honda civic for sale in austin");
  Add("u2", "recipes", "tomato soup with basil");
  auto hits = index_.Search("honda civic", 10);
  ASSERT_EQ(hits.size(), 1u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "u1");
}

TEST_F(IndexTest, RanksMoreRelevantHigher) {
  Add("generic", "page", "honda mentioned once among many other words "
                         "about various topics entirely unrelated");
  Add("focused", "honda dealer", "honda honda honda certified honda");
  auto hits = index_.Search("honda", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "focused");
}

TEST_F(IndexTest, TitleBoostMatters) {
  Add("title-hit", "honda civic listings", "various cars available here");
  Add("body-hit", "car page", "one honda among other cars listed here");
  auto hits = index_.Search("honda", 10);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "title-hit");
}

TEST_F(IndexTest, MultiTermQueryPrefersBothTerms) {
  Add("both", "x", "ford focus 1993 clean");
  Add("one", "x", "ford truck heavy duty");
  auto hits = index_.Search("ford focus", 10);
  ASSERT_GE(hits.size(), 2u);
  EXPECT_EQ(index_.doc(hits[0].doc).url, "both");
}

TEST_F(IndexTest, DuplicateContentSuppressed) {
  DocId a = Add("u1", "t", "identical body content here");
  DocId b = Add("u2", "t", "identical body content here");
  EXPECT_EQ(a, b);  // second add returns the first doc
  EXPECT_EQ(index_.num_docs(), 1u);
}

TEST_F(IndexTest, ContainsContent) {
  Add("u1", "t", "some body");
  EXPECT_TRUE(index_.ContainsContent(Fnv1a64("some body")));
  EXPECT_FALSE(index_.ContainsContent(Fnv1a64("other body")));
}

TEST_F(IndexTest, InsertBatchAddsAndSuppressesDuplicates) {
  std::vector<Document> batch;
  batch.push_back(Document{"u1", "t1", "first body text", true, "h.com"});
  batch.push_back(Document{"u2", "t2", "second body text", true, "h.com"});
  batch.push_back(Document{"u3", "t3", "first body text", true, "h.com"});
  auto added = index_.InsertBatch(batch);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 2u);  // u3 duplicates u1's content
  EXPECT_EQ(index_.num_docs(), 2u);
  EXPECT_TRUE(index_.doc(0).is_deep_web);
}

TEST_F(IndexTest, ConcurrentInsertBatchLosesNothing) {
  // 4 writers x 50 distinct documents each; every insert must land.
  static constexpr size_t kWriters = 4;
  static constexpr size_t kDocsPerWriter = 50;
  std::vector<std::thread> writers;
  for (size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([this, w] {
      std::vector<Document> batch;
      for (size_t i = 0; i < kDocsPerWriter; ++i) {
        std::string tag =
            "w" + std::to_string(w) + "d" + std::to_string(i);
        batch.push_back(Document{"url-" + tag, "title", "body text " + tag,
                                 false, "h" + std::to_string(w) + ".com"});
      }
      auto added = index_.InsertBatch(batch);
      EXPECT_TRUE(added.ok());
      EXPECT_EQ(*added, kDocsPerWriter);
    });
  }
  for (auto& t : writers) t.join();
  EXPECT_EQ(index_.num_docs(), kWriters * kDocsPerWriter);
  for (size_t w = 0; w < kWriters; ++w) {
    EXPECT_EQ(index_.DocsForHost("h" + std::to_string(w) + ".com").size(),
              kDocsPerWriter);
  }
}

TEST_F(IndexTest, DocFrequency) {
  Add("u1", "t", "alpha beta");
  Add("u2", "t", "alpha gamma");
  EXPECT_EQ(index_.DocFrequency("alpha"), 2u);
  EXPECT_EQ(index_.DocFrequency("beta"), 1u);
  EXPECT_EQ(index_.DocFrequency("zeta"), 0u);
}

TEST_F(IndexTest, EmptyQueryAndEmptyIndex) {
  EXPECT_TRUE(index_.Search("anything", 5).empty());
  Add("u1", "t", "body");
  EXPECT_TRUE(index_.Search("", 5).empty());
  EXPECT_TRUE(index_.Search("the and of", 5).empty());  // all stopwords
}

TEST_F(IndexTest, TopKLimitsResults) {
  for (int i = 0; i < 20; ++i) {
    Add("u" + std::to_string(i), "t",
        "shared term document " + std::to_string(i));
  }
  EXPECT_EQ(index_.Search("shared", 5).size(), 5u);
}

TEST_F(IndexTest, DeepWebProvenanceKept) {
  Add("u1", "t", "surface page body", false, "a.com");
  Add("u2", "t", "deep page body", true, "b.com");
  EXPECT_FALSE(index_.doc(0).is_deep_web);
  EXPECT_TRUE(index_.doc(1).is_deep_web);
  EXPECT_EQ(index_.doc(1).source_host, "b.com");
}

TEST_F(IndexTest, DocsForHost) {
  Add("u1", "t", "body one", false, "a.com");
  Add("u2", "t", "body two", false, "a.com");
  Add("u3", "t", "body three", false, "b.com");
  EXPECT_EQ(index_.DocsForHost("a.com").size(), 2u);
  EXPECT_EQ(index_.DocsForHost("z.com").size(), 0u);
}

TEST_F(IndexTest, CharacteristicTermsPreferHostSpecificVocab) {
  // "plumbing" appears only on a.com; "service" is everywhere.
  Add("a1", "t", "plumbing service pipes fittings", false, "a.com");
  Add("a2", "t", "plumbing service drains", false, "a.com");
  Add("b1", "t", "catering service menus", false, "b.com");
  Add("b2", "t", "tutoring service lessons", false, "b.com");
  auto terms = index_.CharacteristicTerms("a.com", 3);
  ASSERT_FALSE(terms.empty());
  EXPECT_EQ(terms[0], "plumbing");
}

/// CharacteristicTerms computed from the corpus alone, by walking
/// per-term postings instead of the index's forward lists: per document,
/// body counts plus title boosts summed in double and stored as float;
/// per host, those weights summed in ascending doc id order; terms ranked
/// by tf * log(1 + n / df), ties broken by name.
std::vector<std::string> ReferenceCharacteristicTerms(
    const std::vector<Document>& docs, const std::string& host) {
  std::map<std::string, std::vector<std::pair<size_t, float>>> postings;
  for (size_t d = 0; d < docs.size(); ++d) {
    std::map<std::string, double> weights;
    for (const auto& t : ContentTokens(docs[d].body)) weights[t] += 1.0;
    for (const auto& t : ContentTokens(docs[d].title)) {
      weights[t] += kTitleBoost;
    }
    for (const auto& [term, w] : weights) {
      postings[term].emplace_back(d, static_cast<float>(w));
    }
  }
  const double n = static_cast<double>(docs.size());
  std::vector<std::pair<double, std::string>> ranked;
  for (const auto& [term, list] : postings) {
    double tf = 0.0;  // weights are positive: 0 means "not on this host"
    for (const auto& [d, w] : list) {
      if (docs[d].source_host == host) tf += static_cast<double>(w);
    }
    const double df = static_cast<double>(list.size());
    if (tf > 0.0) ranked.emplace_back(tf * std::log(1.0 + n / df), term);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  std::vector<std::string> out;
  for (const auto& r : ranked) out.push_back(r.second);
  return out;
}

TEST(CharacteristicTermsTest, MatchesAPostingsWalkReference) {
  // Three hosts. On a.example, "zebra" and "yak" only ever occur
  // together (an exact score tie that the name order must break) and
  // "catalog" occurs only in a title (all of its weight is title boost).
  auto doc = [](const std::string& host, int i, const std::string& title,
                const std::string& body) {
    return Document{"http://" + host + "/p" + std::to_string(i), title, body,
                    false, host};
  };
  const std::vector<Document> docs = {
      doc("a.example", 0, "Widget Catalog",
          "widget gear sprocket zebra yak common"),
      doc("a.example", 1, "t", "widget widget gear zebra yak common common"),
      doc("a.example", 2, "t", "sprocket sprocket common common common"),
      doc("a.example", 3, "t", "gear common filler"),
      doc("b.example", 4, "Gear Reviews", "gear gear review common"),
      doc("b.example", 5, "t", "review review rating common sprocket"),
      doc("b.example", 6, "t", "rating filler common"),
      doc("c.example", 7, "Filler Notes", "filler filler notes common"),
      doc("c.example", 8, "t", "notes common widget"),
      doc("c.example", 9, "t", "common common common filler"),
  };
  InvertedIndex idx;
  ASSERT_TRUE(idx.InsertBatch(docs).ok());
  ASSERT_EQ(idx.num_docs(), docs.size());  // no duplicates suppressed
  const size_t k = idx.vocabulary_size() + 5;  // the full ranking
  for (const std::string host : {"a.example", "b.example", "c.example"}) {
    const auto expected = ReferenceCharacteristicTerms(docs, host);
    ASSERT_FALSE(expected.empty()) << host;
    EXPECT_EQ(idx.CharacteristicTerms(host, k), expected) << host;
  }
}

TEST_F(IndexTest, DeterministicTieBreakByDocId) {
  Add("u1", "t", "tie word");
  Add("u2", "t", "tie word extra");
  auto hits1 = index_.Search("tie", 10);
  auto hits2 = index_.Search("tie", 10);
  ASSERT_EQ(hits1.size(), hits2.size());
  for (size_t i = 0; i < hits1.size(); ++i) {
    EXPECT_EQ(hits1[i].doc, hits2[i].doc);
  }
}

}  // namespace
}  // namespace index
}  // namespace deepsurf
