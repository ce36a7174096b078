// E8 — database selection (paper §4.2).
//
// Claims reproduced:
//   * "the keywords that work well for software, e.g. 'microsoft', are
//      quite different from keywords for movies, music and games" — so
//      per-option keyword sets retrieve more content than one global set;
//   * detection: db-selector menus are distinguishable from ordinary
//     field-equality selects (precision/recall over a mixed corpus of
//     300-row sites and of the 20-200-row sites a surfacing crawl meets,
//     each select tested against its site's own keyword box).

#include <cstdio>
#include <set>

#include "bench_common.h"
#include "core/dbselect.h"
#include "core/probing.h"

namespace deepsurf {
namespace {

/// Retrieval with one *global* keyword set used under every option —
/// the baseline that ignores the correlation.
size_t GlobalKeywordRetrieval(bench::SiteFixture* f,
                              const std::string& selector,
                              const std::string& box,
                              const std::vector<std::string>& keywords,
                              size_t* urls) {
  core::FormProber prober(&f->web, f->analyzed);
  const core::AnalyzedInput* sel = f->analyzed.FindInput(selector);
  std::set<uint64_t> records;
  *urls = 0;
  for (const auto& option : sel->select_values) {
    if (option.empty()) continue;
    for (const auto& kw : keywords) {
      ++*urls;
      auto probe = prober.Probe({{selector, option}, {box, kw}});
      if (!probe.ok()) continue;
      for (uint64_t h : probe->record_hashes) records.insert(h);
    }
  }
  return records.size();
}

int Run() {
  bench::Header(
      "E8: database-selection correlation",
      "per-database keyword sets ('microsoft' for software, not movies) "
      "beat a global keyword list; db-selector menus are detectable");

  // --- Part 1: retrieval comparison on media-library sites. ---
  std::printf("%-8s %-26s %-8s %-10s %-14s\n", "site", "strategy", "URLs",
              "records", "records/URL");
  bool per_option_wins = true;
  for (uint64_t seed : {8101, 8202, 8303}) {
    auto f = bench::MakeFixture(synthweb::Domain::kMediaLibrary, seed, 400);
    std::string selector;
    std::string box;
    for (const auto& in : f->site->spec().inputs) {
      if (in.role == synthweb::InputRole::kDbSelector) {
        selector = in.html_name;
      }
      if (in.role == synthweb::InputRole::kKeywordSearch) {
        box = in.html_name;
      }
    }
    DS_CHECK(!selector.empty() && !box.empty());

    // Per-option mining.
    core::FormProber prober(&f->web, f->analyzed);
    core::ProbingOptions per_option;
    per_option.final_count = 8;
    per_option.rounds = 2;
    auto verdict =
        core::MineDbSelector(&prober, selector, box, {}, nullptr, per_option);
    DS_CHECK(verdict.ok());
    DS_CHECK(verdict->is_db_selector);
    std::set<uint64_t> per_option_records;
    size_t per_option_urls = 0;
    {
      core::FormProber retrieval_prober(&f->web, f->analyzed);
      for (const auto& [option, keywords] : verdict->keywords_by_option) {
        for (const auto& kw : keywords) {
          ++per_option_urls;
          auto probe =
              retrieval_prober.Probe({{selector, option}, {box, kw}});
          if (!probe.ok()) continue;
          for (uint64_t h : probe->record_hashes) {
            per_option_records.insert(h);
          }
        }
      }
    }

    // Global baseline: the union's top keywords (as if mined without the
    // selector), same total URL budget.
    std::vector<std::string> global_keywords;
    {
      std::set<std::string> dedup;
      for (const auto& [option, keywords] : verdict->keywords_by_option) {
        for (const auto& kw : keywords) {
          if (dedup.insert(kw).second) global_keywords.push_back(kw);
        }
      }
      size_t per_option_count = per_option_urls / 4;  // 4 options
      if (global_keywords.size() > per_option_count) {
        global_keywords.resize(per_option_count);
      }
    }
    size_t global_urls = 0;
    size_t global_records = GlobalKeywordRetrieval(
        f.get(), selector, box, global_keywords, &global_urls);

    double per_ratio = per_option_urls == 0
                           ? 0.0
                           : static_cast<double>(per_option_records.size()) /
                                 static_cast<double>(per_option_urls);
    double global_ratio =
        global_urls == 0 ? 0.0
                         : static_cast<double>(global_records) /
                               static_cast<double>(global_urls);
    std::printf("%-8llu %-26s %-8zu %-10zu %-14.2f\n",
                static_cast<unsigned long long>(seed),
                "per-option keywords", per_option_urls,
                per_option_records.size(), per_ratio);
    std::printf("%-8s %-26s %-8zu %-10zu %-14.2f\n", "",
                "global keywords", global_urls, global_records,
                global_ratio);
    if (per_ratio <= global_ratio) per_option_wins = false;
  }

  // --- Part 2: detection precision/recall over a mixed select corpus. ---
  // Each site's selects are tested against the site's own keyword box,
  // the (select, search box) pairs the surfacer tests; sites without a
  // box offer none. Two cells: 300-row sites, and 20-200-row sites (the
  // sizes a surfacing crawl meets, one Zipf rank per seed).
  struct DetectionCell {
    const char* rows;
    size_t true_selectors = 0;
    size_t detected_true = 0;
    size_t ordinary_selects = 0;
    size_t false_alarms = 0;
  };
  auto detect = [](DetectionCell* cell, uint64_t seed, size_t rows) {
    Rng rng(seed);
    synthweb::Domain domain =
        synthweb::AllDomains()[rng.Uniform(synthweb::AllDomains().size())];
    auto f = bench::MakeFixture(domain, seed, rows,
                                "d" + std::to_string(seed) + ".example.com");
    std::string box;
    for (const auto& in : f->site->spec().inputs) {
      if (in.role == synthweb::InputRole::kKeywordSearch) box = in.html_name;
    }
    if (box.empty()) return;
    core::FormProber prober(&f->web, f->analyzed);
    for (const auto& in : f->site->spec().inputs) {
      if (!in.is_select) continue;
      if (in.role == synthweb::InputRole::kPresentation) continue;
      bool truth = in.role == synthweb::InputRole::kDbSelector;
      auto verdict = core::DetectDbSelector(&prober, in.html_name, box);
      if (!verdict.ok()) continue;
      if (truth) {
        ++cell->true_selectors;
        if (verdict->is_db_selector) ++cell->detected_true;
      } else {
        ++cell->ordinary_selects;
        if (verdict->is_db_selector) ++cell->false_alarms;
      }
    }
  };
  DetectionCell large{"300"};
  DetectionCell small{"20-200"};
  for (uint64_t seed = 8400; seed < 8460; ++seed) detect(&large, seed, 300);
  for (uint64_t seed = 8460; seed < 8560; ++seed) {
    detect(&small, seed, 20 + 180 / ((seed - 8460) % 10 + 1));
  }
  std::printf("\n%-8s %-10s %-10s %-8s %-10s %s\n", "rows", "ordinary",
              "false", "db sel", "detected", "recall");
  bool detection_ok = true;
  for (const DetectionCell* cell : {&large, &small}) {
    double recall = cell->true_selectors == 0
                        ? 0.0
                        : static_cast<double>(cell->detected_true) /
                              static_cast<double>(cell->true_selectors);
    std::printf("%-8s %-10zu %-10zu %-8zu %-10zu %.1f%%\n", cell->rows,
                cell->ordinary_selects, cell->false_alarms,
                cell->true_selectors, cell->detected_true, 100.0 * recall);
    if (recall < 0.5 || cell->false_alarms * 20 > cell->ordinary_selects) {
      detection_ok = false;
    }
  }

  bench::Verdict(per_option_wins && detection_ok,
                 "per-option keywords yield more records per URL on every "
                 "site; detector separates db selectors from ordinary "
                 "selects");
  return (per_option_wins && detection_ok) ? 0 : 1;
}

}  // namespace
}  // namespace deepsurf

int main() { return deepsurf::Run(); }
