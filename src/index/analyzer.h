// Copyright 2026 The deepsurf Authors.
//
// Text analysis for the IR index and for the surfacing keyword machinery:
// tokenization and stop-word filtering. The same analyzer is shared by the
// index and by the iterative prober so that "characteristic words of a
// site's pages" (paper §4.1) are computed in index space.
//
// The analyzer is C-locale ASCII by contract: a token is a run of ASCII
// letters and digits, folded to lowercase, and every other byte (bytes
// >= 0x80 included) separates tokens, whatever the process locale is.

#ifndef DEEPSURF_INDEX_ANALYZER_H_
#define DEEPSURF_INDEX_ANALYZER_H_

#include <string>
#include <string_view>
#include <vector>

namespace deepsurf {
namespace index {

/// Lowercased alphanumeric tokens of `text`; tokens shorter than 2 or
/// longer than 40 characters are dropped.
std::vector<std::string> Tokenize(std::string_view text);

/// True for the 79 most common English function words.
bool IsStopWord(std::string_view token);

/// Tokenize + drop stop words, in one pass: only the returned tokens
/// are allocated.
std::vector<std::string> ContentTokens(std::string_view text);

}  // namespace index
}  // namespace deepsurf

#endif  // DEEPSURF_INDEX_ANALYZER_H_
