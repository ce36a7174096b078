// Copyright 2026 The deepsurf Authors.
//
// The staged surfacing pipeline. One form's offline analysis is four
// explicit stages over a shared FormAnalysisContext:
//
//   AnalyzeInputs   fetch-independent form modeling + typed-input
//                   recognition + site-context word mining;
//   MineCandidates  candidate-value mining: Javascript correlations,
//                   range-pair compilation, database-selection detection,
//                   iterative keyword probing for search boxes;
//   SearchTemplates informative-template lattice search;
//   EmitUrls        indexability-based scheme selection + URL generation.
//
// Each stage is a free function so tests and ablation benches can drive
// the pipeline one stage at a time and inspect the context in between.
// The Surfacer facade (core/surfacer.h) simply runs the four stages in
// order. All probe traffic goes through a net::ProbeScheduler, so many
// forms can be analyzed concurrently against one shared fetch layer.

#ifndef DEEPSURF_CORE_PIPELINE_H_
#define DEEPSURF_CORE_PIPELINE_H_

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "core/dbselect.h"
#include "core/form_model.h"
#include "core/indexability.h"
#include "core/prober.h"
#include "core/probing.h"
#include "core/ranges.h"
#include "core/templates.h"
#include "core/typed.h"
#include "html/forms.h"
#include "index/inverted_index.h"
#include "net/fetcher.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// Candidate values a select input contributes, at most.
constexpr size_t kMaxSelectOptions = 40;
/// Dictionary samples a typed text input contributes, at most.
constexpr size_t kMaxTypedSamples = 10;

/// What the paper's experiments vary: the ablation switches, the
/// budgets, and the keyword-mining, template-sampling and indexability
/// settings. Everything else in the pipeline is a constant of the stage
/// that uses it.
struct SurfacerOptions {
  bool enable_typed = true;
  bool enable_ranges = true;
  bool enable_dbselect = true;
  bool enable_jscorr = true;
  bool enable_indexability = true;
  /// Probe budget per form during offline analysis (0 = unlimited).
  size_t probe_budget = 600;
  /// URL cap per form (0 = unlimited).
  size_t max_urls_per_form = 5000;

  /// Keyword mining for search boxes (per-option db-selection mining
  /// runs the defaults).
  ProbingOptions probing;
  TemplateOptions templates;
  IndexabilityOptions indexability;
};

/// One generated URL with the bindings that produced it (the bindings are
/// the page's semantic annotations — paper §5.1).
struct SurfacedUrl {
  net::Url url;
  Bindings bindings;
};

/// Full per-form analysis outcome.
struct FormSurfacingResult {
  bool skipped_post = false;
  std::vector<SurfacedUrl> urls;
  size_t probes_used = 0;  ///< fetches during offline analysis

  std::map<std::string, TypeVerdict> typed_verdicts;  ///< per text input
  std::vector<RangePair> ranges;
  std::vector<DbSelectVerdict> dbselect;
  size_t search_keywords = 0;       ///< keywords mined for search boxes
  size_t templates_evaluated = 0;
  size_t templates_informative = 0;
  size_t templates_selected = 0;
  size_t estimated_distinct_records = 0;
  /// The compiled analysis inputs (exposed for experiments).
  std::vector<TemplateInput> template_inputs;
};

/// Everything one form's analysis accumulates as it moves through the
/// stages. Create it with AnalyzeInputs; later stages mutate it in place.
/// Move-only (it owns the form's prober).
struct FormAnalysisContext {
  SurfacerOptions options;
  const index::InvertedIndex* seed_index = nullptr;  ///< may be null

  AnalyzedForm analyzed;
  /// The form's probe executor (null when the form is POST and analysis
  /// stopped at AnalyzeInputs).
  std::unique_ptr<FormProber> prober;
  /// Site-characteristic words seeding keyword probes.
  std::vector<std::string> context_words;
  /// Inputs already claimed by a compiled multi-input pattern.
  std::set<std::string> consumed;
  /// The analysis-level inputs templates are built over.
  std::vector<TemplateInput> template_inputs;
  /// Lattice-search outcome (filled by SearchTemplates).
  TemplateSearchResult search;
  /// The accumulating per-form outcome.
  FormSurfacingResult result;

  /// Corpus document frequency of `term` as a fraction of all indexed
  /// docs (0 when no seed index).
  double DocFrequencyFraction(const std::string& term) const;
};

/// Stage 1: models the form, recognizes typed inputs, and mines the
/// site-context words. POST forms return a context whose result has
/// skipped_post set and no prober — later stages must not run on it.
Result<FormAnalysisContext> AnalyzeInputs(net::ProbeScheduler* scheduler,
                                          const index::InvertedIndex* seed_index,
                                          const SurfacerOptions& options,
                                          const net::Url& page_url,
                                          const html::Form& form,
                                          const std::string& page_scripts = "");

/// Stage 2: compiles candidate values — JS correlations, confirmed range
/// pairs, database selections, typed samples, mined keywords — into
/// ctx->template_inputs.
Status MineCandidates(FormAnalysisContext* ctx);

/// Stage 3: bottom-up informative-template search over the compiled
/// inputs (fills ctx->search).
Status SearchTemplates(FormAnalysisContext* ctx);

/// Stage 4: selects the surfacing scheme (indexability criterion) and
/// generates the final URL set into ctx->result.
Status EmitUrls(FormAnalysisContext* ctx);

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_PIPELINE_H_
