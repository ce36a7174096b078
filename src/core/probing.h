// Copyright 2026 The deepsurf Authors.
//
// Iterative probing for search boxes (paper §4.1): seed keywords with the
// words most characteristic of the site's already-indexed pages, probe,
// mine new candidate keywords from the result pages, iterate, and finally
// select the subset that maximizes result diversity (greedy set cover
// over record hashes). This is the select-keywords-for-a-text-input
// machinery of [12] §4.2 and of Barbosa-Freire / Ntoulas et al.

#ifndef DEEPSURF_CORE_PROBING_H_
#define DEEPSURF_CORE_PROBING_H_

#include <functional>
#include <string>
#include <vector>

#include "core/prober.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// Seed keywords tried in round 0. The pipeline, the db-selection miner
/// and the naive baseline take this many site-characteristic terms.
constexpr size_t kSeedKeywordCount = 10;

/// Options for iterative keyword probing.
struct ProbingOptions {
  size_t rounds = 3;             ///< mining iterations after the seed round
  size_t final_count = 25;       ///< keywords kept after greedy selection
};

/// One probed keyword with its observed yield.
struct ProbedKeyword {
  std::string keyword;
  size_t record_count = 0;            ///< records on the first result page
  std::vector<uint64_t> record_hashes;
};

/// Result of the probing run.
struct ProbingResult {
  /// Keywords selected by greedy max-coverage, highest marginal gain
  /// first.
  std::vector<std::string> selected;
  /// Everything that was probed (diagnostics / experiments).
  std::vector<ProbedKeyword> probed;
  /// Distinct record hashes seen across all probes (lower bound on the
  /// reachable content behind this search box).
  size_t distinct_records = 0;
  size_t probes_used = 0;
};

/// Runs iterative probing against `input_name` of the prober's form.
/// `seed_words` should be the site's characteristic terms
/// (InvertedIndex::CharacteristicTerms); generic fallback seeds are used
/// when empty. `df_lookup` maps a term to its corpus document frequency
/// fraction (0 when unknown) and filters over-generic candidates.
/// `context` bindings ride along on every probe (used by the db-selection
/// analysis to pin the select menu to one option while mining keywords).
Result<ProbingResult> IterativeProbe(
    FormProber* prober, const std::string& input_name,
    const std::vector<std::string>& seed_words,
    const std::function<double(const std::string&)>& df_lookup,
    const ProbingOptions& options = {}, const Bindings& context = {});

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_PROBING_H_
