#include "index/analyzer.h"

#include <algorithm>
#include <array>
#include <iterator>

namespace deepsurf {
namespace index {
namespace {

constexpr size_t kMinTokenLength = 2;
constexpr size_t kMaxTokenLength = 40;

/// C-locale alphanumeric fold: the lowercase form of an ASCII letter or
/// digit, and 0 for every other byte (bytes >= 0x80 included).
constexpr std::array<char, 256> MakeFoldTable() {
  std::array<char, 256> table{};
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'a'; c <= 'z'; ++c) table[c] = static_cast<char>(c);
  for (int c = 'A'; c <= 'Z'; ++c) table[c] = static_cast<char>(c - 'A' + 'a');
  return table;
}
constexpr std::array<char, 256> kFold = MakeFoldTable();

/// Sorted, for binary search; no entry is longer than kMaxStopWordLength.
constexpr std::string_view kStopWords[] = {
    "a",     "all",   "also",  "an",    "and",  "any",   "are",  "as",
    "at",    "be",    "been",  "but",   "by",   "can",   "do",   "each",
    "for",   "from",  "had",   "has",   "have", "he",    "her",  "his",
    "how",   "if",    "in",    "into",  "is",   "it",    "its",  "may",
    "more",  "most",  "new",   "no",    "not",  "now",   "of",   "on",
    "one",   "only",  "or",    "other", "our",  "out",   "per",  "she",
    "so",    "some",  "such",  "than",  "that", "the",   "their", "them",
    "then",  "there", "these", "they",  "this", "to",    "up",   "us",
    "use",   "very",  "via",   "was",   "we",   "were",  "what", "when",
    "which", "who",   "will",  "with",  "would", "you",  "your",
};
constexpr size_t kMaxStopWordLength = 5;

constexpr bool StopWordsSortedAndShort() {
  for (size_t i = 0; i < std::size(kStopWords); ++i) {
    if (kStopWords[i].size() > kMaxStopWordLength) return false;
    if (i > 0 && !(kStopWords[i - 1] < kStopWords[i])) return false;
  }
  return true;
}
static_assert(std::size(kStopWords) == 79);
static_assert(StopWordsSortedAndShort());

/// Calls `emit(token)` for each lowercased alphanumeric run of `text`
/// whose length lies in [kMinTokenLength, kMaxTokenLength]. The view is
/// valid only during the call: the next token overwrites its buffer.
template <typename Emit>
void ForEachToken(std::string_view text, Emit&& emit) {
  char buf[kMaxTokenLength] = {};
  size_t len = 0;  // length of the current run; may exceed the buffer
  auto flush = [&] {
    if (len >= kMinTokenLength && len <= kMaxTokenLength) {
      emit(std::string_view(buf, len));
    }
    len = 0;
  };
  for (char c : text) {
    char folded = kFold[static_cast<unsigned char>(c)];
    if (folded != 0) {
      if (len < kMaxTokenLength) buf[len] = folded;
      ++len;
    } else if (len != 0) {
      flush();
    }
  }
  flush();
}

}  // namespace

std::vector<std::string> Tokenize(std::string_view text) {
  std::vector<std::string> out;
  ForEachToken(text, [&](std::string_view tok) { out.emplace_back(tok); });
  return out;
}

bool IsStopWord(std::string_view token) {
  if (token.size() > kMaxStopWordLength) return false;
  return std::binary_search(std::begin(kStopWords), std::end(kStopWords),
                            token);
}

std::vector<std::string> ContentTokens(std::string_view text) {
  std::vector<std::string> out;
  ForEachToken(text, [&](std::string_view tok) {
    if (!IsStopWord(tok)) out.emplace_back(tok);
  });
  return out;
}

}  // namespace index
}  // namespace deepsurf
