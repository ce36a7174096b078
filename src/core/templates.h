// Copyright 2026 The deepsurf Authors.
//
// Informative query templates — the central algorithm of the surfacing
// system ([12] §3, summarized in the paper §3.2). A *template* is a
// subset of form inputs to bind; its *assignments* are the cross product
// of the inputs' candidate bindings. A template is *informative* when the
// pages its sampled assignments generate are sufficiently distinct from
// one another (uninformative inputs — sort orders, presentation knobs,
// inputs the back-end ignores — produce duplicate or empty pages).
// Search proceeds bottom-up over the template lattice, Apriori-style:
// only informative templates are extended, and dimension is capped. The
// result is a URL set proportional to the database size rather than to
// the number of possible queries.

#ifndef DEEPSURF_CORE_TEMPLATES_H_
#define DEEPSURF_CORE_TEMPLATES_H_

#include <string>
#include <vector>

#include "core/prober.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// One analysis-level input: a display name plus candidate bindings.
/// Ordinary inputs contribute single-parameter bindings; compiled range
/// pairs contribute two-parameter bindings (min=a, max=b); db-selection
/// pairs contribute (menu=o, box=keyword) bindings.
struct TemplateInput {
  std::string name;
  std::vector<Bindings> choices;
};

/// An evaluated template.
struct EvaluatedTemplate {
  std::vector<size_t> inputs;     ///< indexes into the TemplateInput list
  double distinct_fraction = 0.0; ///< distinct signatures / sampled pages
  size_t sampled = 0;             ///< assignments probed
  size_t results_seen = 0;        ///< sampled pages with >= 1 record
  bool informative = false;
  /// Record-count observations from the samples (indexability input).
  std::vector<size_t> records_per_page;
  /// Distinct record hashes seen while sampling (coverage estimate).
  std::vector<uint64_t> sample_record_hashes;
};

struct TemplateOptions {
  size_t sample_assignments = 16;       ///< probes per template evaluation
};

/// Result of the lattice search.
struct TemplateSearchResult {
  std::vector<EvaluatedTemplate> evaluated;  ///< every template tested
  size_t probes_used = 0;

  /// Informative templates only.
  std::vector<const EvaluatedTemplate*> Informative() const;
};

/// Runs the bottom-up informative-template search. Templates bind at
/// most three inputs ([12] uses 3). One is informative when its sampled
/// pages that show records carry at least two distinct signatures, and
/// at least one per four pages sampled. Pages with zero records count as
/// duplicates of each other (they are: every empty page renders
/// identically).
Result<TemplateSearchResult> SearchTemplates(
    FormProber* prober, const std::vector<TemplateInput>& inputs,
    const TemplateOptions& options = {});

/// Expands a template into its full assignment list (cross product of its
/// inputs' choices), capped at `max_urls` (0 = unlimited).
std::vector<Bindings> ExpandTemplate(const std::vector<TemplateInput>& inputs,
                                     const EvaluatedTemplate& tmpl,
                                     size_t max_urls = 0);

/// Number of assignments a template would expand to (without expanding).
size_t TemplateCardinality(const std::vector<TemplateInput>& inputs,
                           const EvaluatedTemplate& tmpl);

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_TEMPLATES_H_
