#include "core/pipeline.h"

#include <algorithm>

#include "core/jscorr.h"
#include "util/strings.h"

namespace deepsurf {
namespace core {

namespace {

/// Keywords a search box contributes, at most.
constexpr size_t kMaxKeywords = 25;
/// Dependent values per controlling key of a Javascript correlation map.
constexpr size_t kMaxJsValuesPerKey = 3;

/// Numeric parses of a type's sample dictionary (range probe seeds).
std::vector<double> NumericSamples(DataType type) {
  std::vector<double> out;
  for (const auto& v : SampleValues(type)) {
    auto parsed = strings::ParseDouble(v);
    if (parsed.ok()) out.push_back(*parsed);
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Single-parameter choices from a list of values.
std::vector<Bindings> SingleChoices(const std::string& input,
                                    const std::vector<std::string>& values,
                                    size_t cap) {
  std::vector<Bindings> out;
  for (const auto& v : values) {
    if (v.empty()) continue;
    if (out.size() >= cap) break;
    out.push_back(Bindings{{input, v}});
  }
  return out;
}

}  // namespace

double FormAnalysisContext::DocFrequencyFraction(
    const std::string& term) const {
  if (seed_index == nullptr || seed_index->num_docs() == 0) return 0.0;
  return static_cast<double>(seed_index->DocFrequency(term)) /
         static_cast<double>(seed_index->num_docs());
}

Result<FormAnalysisContext> AnalyzeInputs(
    net::ProbeScheduler* scheduler, const index::InvertedIndex* seed_index,
    const SurfacerOptions& options, const net::Url& page_url,
    const html::Form& form, const std::string& page_scripts) {
  FormAnalysisContext ctx;
  ctx.options = options;
  ctx.seed_index = seed_index;
  DEEPSURF_ASSIGN_OR_RETURN(ctx.analyzed,
                            AnalyzeForm(page_url, form, page_scripts));
  if (ctx.analyzed.is_post) {
    ctx.result.skipped_post = true;
    return ctx;
  }
  ctx.prober = std::make_unique<FormProber>(scheduler, ctx.analyzed,
                                            options.probe_budget);

  if (seed_index != nullptr) {
    ctx.context_words = seed_index->CharacteristicTerms(
        ctx.analyzed.action.host(), kSeedKeywordCount);
  }
  if (ctx.context_words.empty()) {
    // No index knowledge about this host: characterize the site from its
    // own unconstrained submission (most sites answer it with the first
    // result page) — the probe is cached and reused by all later steps.
    auto default_page = ctx.prober->Probe({});
    if (default_page.ok() && default_page->HasResults()) {
      std::vector<std::pair<double, std::string>> ranked;
      for (const auto& [term, tf] : default_page->TermFrequencies()) {
        ranked.emplace_back(tf, term);
      }
      std::sort(ranked.begin(), ranked.end(),
                [](const auto& a, const auto& b) {
                  if (a.first != b.first) return a.first > b.first;
                  return a.second < b.second;
                });
      for (const auto& [tf, term] : ranked) {
        if (ctx.context_words.size() >= kSeedKeywordCount) break;
        ctx.context_words.push_back(term);
      }
    }
  }

  // --- Typed-input recognition on every text box. ---
  if (options.enable_typed) {
    for (const auto& input : ctx.analyzed.inputs) {
      if (input.is_select) continue;
      auto verdict = RecognizeType(ctx.prober.get(), input.name, input.label,
                                   ctx.context_words);
      if (!verdict.ok()) {
        if (verdict.status().IsResourceExhausted()) break;
        return verdict.status();
      }
      ctx.result.typed_verdicts[input.name] = *verdict;
    }
  }
  return ctx;
}

Status MineCandidates(FormAnalysisContext* ctx) {
  if (ctx->prober == nullptr) {
    return Status::FailedPrecondition(
        "MineCandidates on a POST (unanalyzable) form");
  }
  const SurfacerOptions& options = ctx->options;
  FormProber* prober = ctx->prober.get();
  FormSurfacingResult& result = ctx->result;
  auto df_lookup = [ctx](const std::string& term) {
    return ctx->DocFrequencyFraction(term);
  };

  // --- Javascript correlations (make -> model). ---
  if (options.enable_jscorr && !ctx->analyzed.scripts.empty()) {
    for (const auto& corr : MineCorrelationMaps(ctx->analyzed.scripts)) {
      // Find a select whose options overlap the map keys.
      const AnalyzedInput* controller = nullptr;
      for (const auto& input : ctx->analyzed.inputs) {
        if (!input.is_select || ctx->consumed.count(input.name)) continue;
        size_t overlap = 0;
        for (const auto& v : input.select_values) {
          if (corr.values.count(v)) ++overlap;
        }
        if (overlap * 2 >= corr.values.size()) {
          controller = &input;
          break;
        }
      }
      if (controller == nullptr) continue;
      // The dependent input: an unconsumed text box that is not a search
      // box and not range-typed — i.e. one probing could not fill.
      const AnalyzedInput* dependent = nullptr;
      for (const auto& input : ctx->analyzed.inputs) {
        if (input.is_select || ctx->consumed.count(input.name)) continue;
        auto it = result.typed_verdicts.find(input.name);
        DataType t = it == result.typed_verdicts.end() ? DataType::kUnknown
                                                       : it->second.type;
        if (t == DataType::kUnknown || t == DataType::kCity) {
          dependent = &input;
          break;
        }
      }
      if (dependent == nullptr) continue;
      TemplateInput ti;
      ti.name = controller->name + "*" + dependent->name;
      for (const auto& [key, deps] : corr.values) {
        size_t used = 0;
        for (const auto& dep : deps) {
          if (used >= kMaxJsValuesPerKey) break;
          ++used;
          ti.choices.push_back(
              Bindings{{controller->name, key}, {dependent->name, dep}});
        }
      }
      if (!ti.choices.empty()) {
        ctx->consumed.insert(controller->name);
        ctx->consumed.insert(dependent->name);
        ctx->template_inputs.push_back(std::move(ti));
      }
    }
  }

  // --- Range pairs. ---
  if (options.enable_ranges) {
    std::vector<std::pair<std::string, std::vector<double>>> numeric_seed;
    for (const auto& [name, verdict] : result.typed_verdicts) {
      if (verdict.type == DataType::kPrice ||
          verdict.type == DataType::kYear) {
        numeric_seed.emplace_back(name, NumericSamples(verdict.type));
      }
    }
    auto ranges = DetectRanges(prober, numeric_seed);
    if (ranges.ok()) {
      for (auto& pair : *ranges) {
        if (pair.confirmed && !ctx->consumed.count(pair.min_input) &&
            !ctx->consumed.count(pair.max_input)) {
          TemplateInput ti;
          ti.name = pair.min_input + ".." + pair.max_input;
          for (const auto& [lo, hi] : pair.bands) {
            ti.choices.push_back(
                Bindings{{pair.min_input, lo}, {pair.max_input, hi}});
          }
          if (!ti.choices.empty()) {
            ctx->consumed.insert(pair.min_input);
            ctx->consumed.insert(pair.max_input);
            ctx->template_inputs.push_back(std::move(ti));
          }
        }
        result.probes_used += pair.probes_used;
      }
      result.ranges = std::move(*ranges);
    } else if (!ranges.status().IsResourceExhausted()) {
      return ranges.status();
    }
  }

  // --- Database selection. ---
  if (options.enable_dbselect) {
    // Pattern: a search-box text input plus a select menu.
    std::string search_box;
    for (const auto& [name, verdict] : result.typed_verdicts) {
      if (verdict.type == DataType::kSearchBox &&
          !ctx->consumed.count(name)) {
        search_box = name;
        break;
      }
    }
    if (!search_box.empty()) {
      for (const auto& input : ctx->analyzed.inputs) {
        if (!input.is_select || ctx->consumed.count(input.name)) continue;
        if (input.select_values.size() < 2) continue;
        auto verdict = MineDbSelector(prober, input.name, search_box,
                                      ctx->context_words, df_lookup,
                                      ProbingOptions{});
        if (!verdict.ok()) {
          if (verdict.status().IsResourceExhausted()) break;
          return verdict.status();
        }
        bool detected = verdict->is_db_selector &&
                        !verdict->keywords_by_option.empty();
        if (detected) {
          TemplateInput ti;
          ti.name = input.name + "#" + search_box;
          for (const auto& [option, keywords] :
               verdict->keywords_by_option) {
            for (const auto& kw : keywords) {
              ti.choices.push_back(
                  Bindings{{input.name, option}, {search_box, kw}});
            }
          }
          if (!ti.choices.empty()) {
            ctx->consumed.insert(input.name);
            ctx->consumed.insert(search_box);
            ctx->template_inputs.push_back(std::move(ti));
          }
        }
        result.dbselect.push_back(std::move(*verdict));
        if (detected) break;  // one db-selection pattern per form
      }
    }
  }

  // --- Remaining inputs become plain template inputs. ---
  for (const auto& input : ctx->analyzed.inputs) {
    if (ctx->consumed.count(input.name)) continue;
    TemplateInput ti;
    ti.name = input.name;
    if (input.is_select) {
      ti.choices =
          SingleChoices(input.name, input.select_values, kMaxSelectOptions);
    } else {
      auto it = result.typed_verdicts.find(input.name);
      DataType type = it == result.typed_verdicts.end()
                          ? DataType::kUnknown
                          : it->second.type;
      if (type == DataType::kSearchBox) {
        auto mined = IterativeProbe(prober, input.name, ctx->context_words,
                                    df_lookup, options.probing);
        if (!mined.ok()) {
          if (mined.status().IsResourceExhausted()) continue;
          return mined.status();
        }
        result.search_keywords += mined->selected.size();
        ti.choices = SingleChoices(input.name, mined->selected, kMaxKeywords);
      } else if (type != DataType::kUnknown) {
        ti.choices =
            SingleChoices(input.name, SampleValues(type), kMaxTypedSamples);
      }
    }
    if (!ti.choices.empty()) ctx->template_inputs.push_back(std::move(ti));
  }
  return Status::OK();
}

Status SearchTemplates(FormAnalysisContext* ctx) {
  if (ctx->prober == nullptr) {
    return Status::FailedPrecondition(
        "SearchTemplates on a POST (unanalyzable) form");
  }
  DEEPSURF_ASSIGN_OR_RETURN(
      ctx->search, SearchTemplates(ctx->prober.get(), ctx->template_inputs,
                                   ctx->options.templates));
  ctx->result.templates_evaluated = ctx->search.evaluated.size();
  ctx->result.templates_informative = ctx->search.Informative().size();
  return Status::OK();
}

Status EmitUrls(FormAnalysisContext* ctx) {
  if (ctx->prober == nullptr) {
    return Status::FailedPrecondition(
        "EmitUrls on a POST (unanalyzable) form");
  }
  const SurfacerOptions& options = ctx->options;
  FormSurfacingResult& result = ctx->result;

  // --- Scheme selection (indexability) and URL generation. ---
  std::vector<const EvaluatedTemplate*> chosen;
  if (options.enable_indexability) {
    SurfacingScheme scheme =
        SelectScheme(ctx->template_inputs, ctx->search,
                     options.max_urls_per_form, options.indexability);
    chosen = scheme.templates;
    result.estimated_distinct_records = scheme.estimated_distinct_records;
  } else {
    for (const auto* t : ctx->search.Informative()) chosen.push_back(t);
    std::set<uint64_t> records;
    for (const auto* t : chosen) {
      for (uint64_t h : t->sample_record_hashes) records.insert(h);
    }
    result.estimated_distinct_records = records.size();
  }
  result.templates_selected = chosen.size();

  std::set<std::string> seen_urls;
  for (const EvaluatedTemplate* tmpl : chosen) {
    for (auto& bindings : ExpandTemplate(ctx->template_inputs, *tmpl,
                                         options.max_urls_per_form)) {
      net::Url url = SubmissionUrl(ctx->analyzed, bindings);
      std::string canonical = url.ToCanonicalString();
      if (seen_urls.count(canonical)) continue;
      if (options.max_urls_per_form != 0 &&
          result.urls.size() >= options.max_urls_per_form) {
        break;
      }
      seen_urls.insert(canonical);
      result.urls.push_back(SurfacedUrl{std::move(url), std::move(bindings)});
    }
  }
  result.probes_used = ctx->prober->fetches();
  result.template_inputs = std::move(ctx->template_inputs);
  return Status::OK();
}

}  // namespace core
}  // namespace deepsurf
