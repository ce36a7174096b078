#include "core/probing.h"

#include <algorithm>
#include <map>
#include <set>

#include "util/strings.h"

namespace deepsurf {
namespace core {

namespace {

/// New keywords probed per mining round.
constexpr size_t kCandidatesPerRound = 12;
/// Candidate terms with document frequency above this fraction of the
/// whole index are too generic to distinguish the site.
constexpr double kMaxDfFraction = 0.2;

/// Generic fallback seeds when the index knows nothing about the site.
const std::vector<std::string>& FallbackSeeds() {
  static const std::vector<std::string> kSeeds = {
      "new",  "city",  "home", "service", "county", "north", "park",
      "lake", "green", "house", "star",   "royal"};
  return kSeeds;
}

}  // namespace

Result<ProbingResult> IterativeProbe(
    FormProber* prober, const std::string& input_name,
    const std::vector<std::string>& seed_words,
    const std::function<double(const std::string&)>& df_lookup,
    const ProbingOptions& options, const Bindings& context) {
  ProbingResult out;
  std::set<std::string> tried;
  std::set<uint64_t> all_records;
  // Candidate pool: keyword -> discriminativeness (1 / within-page record
  // frequency). `page_counts` tracks how many probed pages contained the
  // term: terms recurring across pages are globally frequent (template /
  // domain words) and get demoted at ranking time.
  std::map<std::string, double> pool;
  std::map<std::string, size_t> page_counts;
  size_t result_pages_seen = 0;

  auto probe_keyword = [&](const std::string& kw) -> Status {
    if (tried.count(kw)) return Status::OK();
    tried.insert(kw);
    ++out.probes_used;
    Bindings bindings = context;
    bindings.emplace_back(input_name, kw);
    auto result = prober->Probe(bindings);
    if (!result.ok()) {
      if (result.status().IsResourceExhausted()) return result.status();
      return Status::OK();  // skip failed probes
    }
    ProbedKeyword probed;
    probed.keyword = kw;
    probed.record_count = result->record_count;
    probed.record_hashes = result->record_hashes;
    for (uint64_t h : result->record_hashes) all_records.insert(h);
    // Mine new candidates from this result page. Candidates are scored
    // by *discriminativeness*: a term appearing in few of the page's
    // records is record-specific vocabulary and will retrieve unseen
    // rows elsewhere in the database, whereas a term repeated across
    // most records (template / domain vocabulary) just re-retrieves
    // pages already seen. This is the frequency-band insight of the
    // keyword-probing literature ([1, 13]).
    if (result->HasResults()) {
      ++result_pages_seen;
      // Record-document frequencies are over content tokens: stop words
      // never reach the pool.
      for (const auto& [term, rdf] : result->RecordDocumentFrequencies()) {
        if (term == kw) continue;
        // Digit-only tokens (years, ids, date fragments) make poor
        // keywords: they match numeric columns incidentally and carry
        // no topical signal.
        if (strings::IsDigits(term)) continue;
        double df = df_lookup ? df_lookup(term) : 0.0;
        if (df > kMaxDfFraction) continue;  // too generic
        // max, not sum: accumulating across pages would re-promote the
        // frequent terms we are trying to avoid.
        pool[term] = std::max(pool[term], 1.0 / rdf);
        ++page_counts[term];
      }
    }
    out.probed.push_back(std::move(probed));
    return Status::OK();
  };

  // Round 0: seeds.
  const auto& seeds = seed_words.empty() ? FallbackSeeds() : seed_words;
  size_t seeded = 0;
  for (const auto& s : seeds) {
    if (seeded >= kSeedKeywordCount) break;
    ++seeded;
    DEEPSURF_RETURN_IF_ERROR(probe_keyword(s));
  }

  // Mining rounds: probe the highest-weight unseen candidates. The rank
  // weight divides by cross-page recurrence, the prober's own estimate
  // of global term frequency.
  for (size_t round = 0; round < options.rounds; ++round) {
    std::vector<std::pair<double, std::string>> ranked;
    for (const auto& [term, weight] : pool) {
      if (tried.count(term)) continue;
      double page_df =
          result_pages_seen == 0
              ? 0.0
              : static_cast<double>(page_counts[term]) /
                    static_cast<double>(result_pages_seen);
      ranked.emplace_back(weight / (1.0 + 8.0 * page_df), term);
    }
    if (ranked.empty()) break;
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
      if (a.first != b.first) return a.first > b.first;
      return a.second < b.second;
    });
    size_t probed_this_round = 0;
    for (const auto& [weight, term] : ranked) {
      if (probed_this_round >= kCandidatesPerRound) break;
      ++probed_this_round;
      DEEPSURF_RETURN_IF_ERROR(probe_keyword(term));
    }
  }

  // Final selection: greedy maximum coverage over record hashes — the
  // "ensure diversity of result pages" step of §4.1.
  std::set<uint64_t> covered;
  std::vector<const ProbedKeyword*> remaining;
  for (const auto& p : out.probed) {
    if (p.record_count > 0) remaining.push_back(&p);
  }
  while (out.selected.size() < options.final_count && !remaining.empty()) {
    const ProbedKeyword* best = nullptr;
    size_t best_gain = 0;
    for (const ProbedKeyword* p : remaining) {
      size_t gain = 0;
      for (uint64_t h : p->record_hashes) {
        if (!covered.count(h)) ++gain;
      }
      if (best == nullptr || gain > best_gain ||
          (gain == best_gain && p->keyword < best->keyword)) {
        best = p;
        best_gain = gain;
      }
    }
    if (best == nullptr || best_gain == 0) break;
    out.selected.push_back(best->keyword);
    for (uint64_t h : best->record_hashes) covered.insert(h);
    remaining.erase(std::find(remaining.begin(), remaining.end(), best));
  }
  out.distinct_records = all_records.size();
  return out;
}

}  // namespace core
}  // namespace deepsurf
