#include "core/dbselect.h"

#include <algorithm>

#include "util/stats.h"
#include "util/strings.h"

namespace deepsurf {
namespace core {

namespace {

/// Mean pairwise JSD (bits) over *column-domain* vocabulary above which
/// the select is a db selector. Domain vocabulary = terms repeating
/// across records of one page; ordinary selects share it across options
/// (same table, same column domains), db selectors do not.
constexpr double kJsdThreshold = 0.85;
/// A term belongs to the domain vocabulary when it appears in at least
/// this fraction of the page's records (and in >= 2 records).
constexpr double kDomainTermFraction = 0.25;
/// Options sampled for the divergence test (all when fewer).
constexpr size_t kOptionsSampled = 4;
/// Minimum records an option's page must show to count as evidence; with
/// fewer, domain vocabulary is indistinguishable from record prose and
/// the detector conservatively declines.
constexpr size_t kMinRecordsForEvidence = 5;

/// The non-numeric term that repeats across the most records of
/// vocabulary `i` and belongs to no other sampled option's vocabulary
/// ("" when every term is shared).
std::string DistinctiveTerm(
    const std::vector<std::map<std::string, double>>& vocabularies,
    size_t i) {
  std::string best;
  double best_rdf = 0.0;
  for (const auto& [term, rdf] : vocabularies[i]) {
    if (rdf <= best_rdf || strings::IsDigits(term)) continue;
    bool shared = false;
    for (size_t j = 0; j < vocabularies.size() && !shared; ++j) {
      shared = j != i && vocabularies[j].count(term) > 0;
    }
    if (!shared) {
      best = term;
      best_rdf = rdf;
    }
  }
  return best;
}

}  // namespace

Result<DbSelectVerdict> DetectDbSelector(FormProber* prober,
                                         const std::string& select_input,
                                         const std::string& text_input) {
  DbSelectVerdict verdict;
  verdict.select_input = select_input;
  verdict.text_input = text_input;
  const AnalyzedInput* sel = prober->form().FindInput(select_input);
  if (sel == nullptr || !sel->is_select) {
    return Status::InvalidArgument("not a select input: " + select_input);
  }
  // Probe each (non-empty) option with the text box left free, and
  // compare the *column-domain* vocabularies: terms that repeat across a
  // meaningful fraction of the page's records. An ordinary field-equality
  // select partitions one table, so its options share domain vocabulary
  // (the other columns are the same); a db selector switches to a
  // different database whose domain vocabulary is disjoint.
  std::vector<std::map<std::string, double>> vocabularies;
  size_t sampled = 0;
  for (const auto& option : sel->select_values) {
    if (option.empty()) continue;
    if (sampled >= kOptionsSampled) break;
    ++sampled;
    ++verdict.probes_used;
    auto result = prober->Probe({{select_input, option}});
    if (!result.ok()) {
      if (result.status().IsResourceExhausted()) return result.status();
      continue;
    }
    if (result->HasResults() &&
        result->record_count >= kMinRecordsForEvidence) {
      double min_records = std::max(
          2.0,
          kDomainTermFraction * static_cast<double>(result->record_count));
      std::map<std::string, double> domain_vocab;
      for (const auto& [term, rdf] : result->RecordDocumentFrequencies()) {
        if (rdf >= min_records) domain_vocab[term] = rdf;
      }
      if (!domain_vocab.empty()) {
        vocabularies.push_back(std::move(domain_vocab));
      }
    }
  }
  if (vocabularies.size() < 2) {
    verdict.is_db_selector = false;
    return verdict;
  }
  std::vector<double> divergences;
  for (size_t i = 0; i < vocabularies.size(); ++i) {
    for (size_t j = i + 1; j < vocabularies.size(); ++j) {
      divergences.push_back(
          stats::JensenShannonBits(vocabularies[i], vocabularies[j]));
    }
  }
  verdict.mean_jsd_bits = stats::Mean(divergences);
  verdict.is_db_selector = verdict.mean_jsd_bits >= kJsdThreshold;
  if (!verdict.is_db_selector) return verdict;

  // Confirm through the keyword box with the select unbound. A
  // field-equality select's unbound form searches all its options, so
  // each option's distinctive term moves the page off the unconstrained
  // one; a db selector's reads one database, where at most that
  // database's own term does.
  ++verdict.probes_used;
  auto unbound = prober->Probe({});
  if (!unbound.ok()) {
    if (unbound.status().IsResourceExhausted()) return unbound.status();
    return verdict;  // no baseline page to compare against
  }
  size_t moved = 0;
  for (size_t i = 0; i < vocabularies.size() && moved < 2; ++i) {
    std::string term = DistinctiveTerm(vocabularies, i);
    if (term.empty()) continue;
    ++verdict.probes_used;
    auto page = prober->Probe({{text_input, term}});
    if (!page.ok()) {
      if (page.status().IsResourceExhausted()) return page.status();
      continue;
    }
    if (page->HasResults() && page->signature != unbound->signature) ++moved;
  }
  verdict.is_db_selector = moved < 2;
  return verdict;
}

Result<DbSelectVerdict> MineDbSelector(
    FormProber* prober, const std::string& select_input,
    const std::string& text_input,
    const std::vector<std::string>& seed_words,
    const std::function<double(const std::string&)>& df_lookup,
    const ProbingOptions& per_option) {
  DEEPSURF_ASSIGN_OR_RETURN(
      DbSelectVerdict verdict,
      DetectDbSelector(prober, select_input, text_input));
  if (!verdict.is_db_selector) return verdict;
  const AnalyzedInput* sel = prober->form().FindInput(select_input);
  for (const auto& option : sel->select_values) {
    if (option.empty()) continue;
    // Seed the per-option mining from the option's own response
    // vocabulary (the probe is cached from detection): each database
    // gets keywords in *its* language, which is the whole point of the
    // db-selection pattern.
    std::vector<std::string> option_seeds;
    auto option_page = prober->Probe({{select_input, option}});
    if (option_page.ok() && option_page->HasResults()) {
      std::vector<std::pair<double, std::string>> ranked;
      for (const auto& [term, tf] : option_page->TermFrequencies()) {
        if (strings::IsDigits(term)) continue;
        ranked.emplace_back(tf, term);
      }
      std::sort(ranked.rbegin(), ranked.rend());
      for (const auto& [tf, term] : ranked) {
        if (option_seeds.size() >= kSeedKeywordCount) break;
        option_seeds.push_back(term);
      }
    }
    if (option_seeds.empty()) option_seeds = seed_words;
    auto mined = IterativeProbe(prober, text_input, option_seeds, df_lookup,
                                per_option,
                                /*context=*/{{select_input, option}});
    if (!mined.ok()) {
      // The budget ran out: keep the options mined in full so far.
      if (mined.status().IsResourceExhausted()) break;
      return mined.status();
    }
    verdict.probes_used += mined->probes_used;
    verdict.keywords_by_option[option] = std::move(mined->selected);
  }
  return verdict;
}

}  // namespace core
}  // namespace deepsurf
