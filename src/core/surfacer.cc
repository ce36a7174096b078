#include "core/surfacer.h"

#include <set>

#include "html/parser.h"
#include "html/text.h"

namespace deepsurf {
namespace core {

Surfacer::Surfacer(net::ProbeScheduler* scheduler,
                   const index::InvertedIndex* seed_index,
                   SurfacerOptions options)
    : scheduler_(scheduler),
      seed_index_(seed_index),
      options_(std::move(options)) {}

Surfacer::Surfacer(net::SimulatedWeb* web,
                   const index::InvertedIndex* seed_index,
                   SurfacerOptions options)
    : owned_scheduler_(std::make_unique<net::ProbeScheduler>(web)),
      scheduler_(owned_scheduler_.get()),
      seed_index_(seed_index),
      options_(std::move(options)) {}

Result<FormSurfacingResult> Surfacer::Surface(
    const net::Url& page_url, const html::Form& form,
    const std::string& page_scripts) {
  DEEPSURF_ASSIGN_OR_RETURN(
      FormAnalysisContext ctx,
      AnalyzeInputs(scheduler_, seed_index_, options_, page_url, form,
                    page_scripts));
  if (ctx.result.skipped_post) return std::move(ctx.result);
  if (Status s = MineCandidates(&ctx); !s.ok()) return s;
  if (Status s = SearchTemplates(&ctx); !s.ok()) return s;
  if (Status s = EmitUrls(&ctx); !s.ok()) return s;
  return std::move(ctx.result);
}

Result<NaiveSurfacingResult> Surfacer::NaiveSurface(
    const net::Url& page_url, const html::Form& form,
    const std::string& page_scripts) {
  NaiveSurfacingResult result;
  DEEPSURF_ASSIGN_OR_RETURN(AnalyzedForm analyzed,
                            AnalyzeForm(page_url, form, page_scripts));
  if (analyzed.is_post) return result;
  FormProber prober(scheduler_, analyzed, options_.probe_budget);

  std::vector<std::string> context_words;
  if (seed_index_ != nullptr) {
    context_words = seed_index_->CharacteristicTerms(analyzed.action.host(),
                                                     kSeedKeywordCount);
  }

  // Candidate values per input; "leave free" ("") is one candidate, which
  // is how naive enumeration ends up crossing every combination.
  std::vector<std::vector<Bindings>> per_input;
  for (const auto& input : analyzed.inputs) {
    std::vector<Bindings> choices;
    choices.push_back(Bindings{});  // unbound
    if (input.is_select) {
      for (const auto& v : input.select_values) {
        if (v.empty()) continue;
        if (choices.size() > kMaxSelectOptions) break;
        choices.push_back(Bindings{{input.name, v}});
      }
    } else {
      // Naive systems bind text boxes with whatever dictionary they have;
      // reuse the typed dictionaries and site words, no validation.
      auto verdict =
          RecognizeType(&prober, input.name, input.label, context_words);
      DataType type = verdict.ok() ? verdict->type : DataType::kUnknown;
      std::vector<std::string> values;
      if (type == DataType::kSearchBox) {
        values = context_words;
      } else if (type != DataType::kUnknown) {
        values = SampleValues(type);
      }
      size_t used = 0;
      for (const auto& v : values) {
        if (used >= kMaxTypedSamples) break;
        ++used;
        choices.push_back(Bindings{{input.name, v}});
      }
    }
    per_input.push_back(std::move(choices));
  }

  // Full cardinality (minus the all-unbound combination).
  size_t total = 1;
  for (const auto& c : per_input) {
    total *= c.size();
    if (total > (static_cast<size_t>(1) << 40)) break;  // saturate
  }
  result.cardinality = total - 1;

  // Capped expansion in mixed-radix order, skipping the all-unbound row.
  size_t cap = options_.max_urls_per_form;
  std::set<std::string> seen;
  for (size_t pos = 1; pos < total; ++pos) {
    if (cap != 0 && result.urls.size() >= cap) break;
    size_t rem = pos;
    Bindings bindings;
    for (const auto& choices : per_input) {
      size_t idx = rem % choices.size();
      rem /= choices.size();
      for (const auto& b : choices[idx]) bindings.push_back(b);
    }
    net::Url url = SubmissionUrl(analyzed, bindings);
    std::string canonical = url.ToCanonicalString();
    if (seen.count(canonical)) continue;
    seen.insert(canonical);
    result.urls.push_back(SurfacedUrl{std::move(url), std::move(bindings)});
  }
  return result;
}

namespace {

/// Shared implementation: `fetch` abstracts over web / scheduler.
template <typename Fetch>
Result<size_t> IndexSurfacedUrlsImpl(Fetch&& fetch,
                                     index::InvertedIndex* index,
                                     const std::vector<SurfacedUrl>& urls,
                                     extract::AnnotationStore* store) {
  size_t indexed = 0;
  for (const auto& surfaced : urls) {
    auto resp = fetch(surfaced.url);
    if (!resp.ok() || resp->status_code != 200) continue;
    auto dom = html::Parse(resp->body);
    std::string canonical = surfaced.url.ToCanonicalString();
    size_t before = index->num_docs();
    auto added = index->AddDocument(canonical, html::ExtractTitle(*dom),
                                    html::ExtractText(*dom),
                                    /*is_deep_web=*/true,
                                    surfaced.url.host());
    if (!added.ok()) continue;
    if (index->num_docs() > before) {
      ++indexed;
      if (store != nullptr) {
        for (const auto& [name, value] : surfaced.bindings) {
          store->Add(canonical, extract::Annotation{name, value});
        }
      }
    }
  }
  return indexed;
}

}  // namespace

Result<size_t> IndexSurfacedUrls(net::SimulatedWeb* web,
                                 index::InvertedIndex* index,
                                 const std::vector<SurfacedUrl>& urls,
                                 extract::AnnotationStore* store) {
  return IndexSurfacedUrlsImpl(
      [web](const net::Url& u) { return web->Get(u); }, index, urls, store);
}

Result<size_t> IndexSurfacedUrls(net::ProbeScheduler* scheduler,
                                 index::InvertedIndex* index,
                                 const std::vector<SurfacedUrl>& urls,
                                 extract::AnnotationStore* store) {
  return IndexSurfacedUrlsImpl(
      [scheduler](const net::Url& u) { return scheduler->Fetch(u); }, index,
      urls, store);
}

}  // namespace core
}  // namespace deepsurf
