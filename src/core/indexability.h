// Copyright 2026 The deepsurf Authors.
//
// The indexability criterion and surfacing-scheme selection (paper §5.2,
// [12]): pages destined for a search-engine index should have neither too
// few results (near-empty pages add nothing) nor too many (mega-pages
// match everything and rank poorly). Among templates that pass, the
// scheme selector greedily picks the set that maximizes estimated content
// coverage per generated URL — minimizing surfaced pages while maximizing
// coverage.

#ifndef DEEPSURF_CORE_INDEXABILITY_H_
#define DEEPSURF_CORE_INDEXABILITY_H_

#include <vector>

#include "core/templates.h"

namespace deepsurf {
namespace core {

struct IndexabilityOptions {
  size_t max_records_per_page = 100; ///< median above this fails
};

/// True when the template's sampled records-per-page distribution passes
/// the indexability window: it has samples (each is a page with at least
/// one record) and their median is at most `max_records_per_page`.
bool IsIndexable(const EvaluatedTemplate& tmpl,
                 const IndexabilityOptions& options);

/// The selected surfacing scheme.
struct SurfacingScheme {
  /// Selected templates, in greedy pick order.
  std::vector<const EvaluatedTemplate*> templates;
  size_t estimated_urls = 0;
  size_t estimated_distinct_records = 0;
};

/// Greedy scheme selection over the informative, indexable templates.
/// Uses each template's sampled record hashes as its coverage estimate
/// and its cardinality as its URL cost. Selection stops when the best
/// remaining template's new records per URL drop below 0.02, and skips
/// a template that would take the scheme past `max_urls` (0 =
/// unlimited).
SurfacingScheme SelectScheme(const std::vector<TemplateInput>& inputs,
                             const TemplateSearchResult& search,
                             size_t max_urls,
                             const IndexabilityOptions& options = {});

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_INDEXABILITY_H_
