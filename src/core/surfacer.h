// Copyright 2026 The deepsurf Authors.
//
// The surfacer: end-to-end offline analysis of one HTML form into a set
// of indexable GET URLs. A thin facade over the staged pipeline
// (core/pipeline.h) — AnalyzeInputs -> MineCandidates -> SearchTemplates
// -> EmitUrls — which orchestrates every §4 technique: typed-input
// recognition, iterative probing for search boxes, Javascript-correlation
// mining, range-pair compilation, database-selection detection,
// informative-template search, the indexability criterion, and URL
// emission. Each technique can be disabled independently for ablation
// experiments, and each stage can be driven separately through the
// pipeline functions. All fetches flow through a shared ProbeScheduler.

#ifndef DEEPSURF_CORE_SURFACER_H_
#define DEEPSURF_CORE_SURFACER_H_

#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "extract/annotator.h"
#include "index/inverted_index.h"
#include "net/fetcher.h"
#include "net/web.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// Baseline result: what naive Cartesian enumeration would do.
struct NaiveSurfacingResult {
  size_t cardinality = 0;  ///< full cross-product size (uncapped)
  std::vector<SurfacedUrl> urls;  ///< capped expansion
};

/// The surfacing engine. Probes through a ProbeScheduler (shared with
/// other surfacers when analyses run concurrently) and optionally reads
/// the search index for characteristic-term seeds.
class Surfacer {
 public:
  /// Probes through `scheduler` (not owned; must outlive the surfacer).
  Surfacer(net::ProbeScheduler* scheduler,
           const index::InvertedIndex* seed_index,
           SurfacerOptions options = {});

  /// Convenience: probes `web` through an internally owned scheduler.
  Surfacer(net::SimulatedWeb* web, const index::InvertedIndex* seed_index,
           SurfacerOptions options = {});

  /// Analyzes one form (as discovered by the crawler) and produces its
  /// surfacing URLs. Runs the four pipeline stages in order.
  Result<FormSurfacingResult> Surface(const net::Url& page_url,
                                      const html::Form& form,
                                      const std::string& page_scripts = "");

  /// Naive baseline: cross product of every input's candidate values
  /// (selects use their options; text boxes use typed samples / mined
  /// keywords), capped at `max_urls_per_form`. No informativeness test,
  /// no range compilation.
  Result<NaiveSurfacingResult> NaiveSurface(
      const net::Url& page_url, const html::Form& form,
      const std::string& page_scripts = "");

 private:
  std::unique_ptr<net::ProbeScheduler> owned_scheduler_;
  net::ProbeScheduler* scheduler_;
  const index::InvertedIndex* seed_index_;
  SurfacerOptions options_;
};

/// Fetches every surfaced URL, inserts the pages into `index` (marked as
/// deep-web provenance), and records the binding annotations in `store`
/// (when non-null). Returns the number of pages actually indexed (exact
/// duplicates are suppressed by the index).
Result<size_t> IndexSurfacedUrls(net::SimulatedWeb* web,
                                 index::InvertedIndex* index,
                                 const std::vector<SurfacedUrl>& urls,
                                 extract::AnnotationStore* store = nullptr);

/// As above, but fetching through `scheduler` — when it is the scheduler
/// the analysis probed through, pages already fetched during analysis are
/// served from the probe cache instead of hitting the site again.
Result<size_t> IndexSurfacedUrls(net::ProbeScheduler* scheduler,
                                 index::InvertedIndex* index,
                                 const std::vector<SurfacedUrl>& urls,
                                 extract::AnnotationStore* store = nullptr);

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_SURFACER_H_
