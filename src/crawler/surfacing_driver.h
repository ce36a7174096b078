// Copyright 2026 The deepsurf Authors.
//
// The corpus-level surfacing driver: takes the crawler's DiscoveredForm
// work-list and fans per-form analyses out across N worker threads, all
// probing through one shared ProbeScheduler (cross-form probe cache,
// in-flight coalescing) and ingesting surfaced pages, 64 documents per
// batch, into any thread-safe WritableIndex (a lone InvertedIndex or the
// sharded serving index). This is the paper's deployment shape — one
// offline system analyzing millions of forms with a light load on each
// site — scaled down to the simulated web.
//
// Determinism: given the same seed and work-list, the surfaced URL set is
// byte-identical at any thread count. Forms are analyzed independently
// (each with its own FormProber whose budget accounting never depends on
// what other forms did), outcomes land in work-list order, and every
// randomized decision draws from a per-form RNG stream derived from
// (seed, form index) — never from a shared generator whose consumption
// order would depend on scheduling. The shared scheduler refuses no
// fetch, so sharing it changes what reaches a site, never what a form
// sees.

#ifndef DEEPSURF_CRAWLER_SURFACING_DRIVER_H_
#define DEEPSURF_CRAWLER_SURFACING_DRIVER_H_

#include <mutex>
#include <string>
#include <vector>

#include "core/surfacer.h"
#include "extract/annotator.h"
#include "crawler/crawler.h"
#include "index/inverted_index.h"
#include "index/search_index.h"
#include "net/fetcher.h"
#include "util/result.h"

namespace deepsurf {
namespace crawler {

/// Driver configuration.
struct SurfacingDriverOptions {
  /// Worker threads analyzing forms. 1 = run on the calling thread.
  size_t num_threads = 1;
  /// Master seed; every form derives its own independent RNG stream from
  /// (seed, work-list index), so results do not depend on thread count.
  uint64_t seed = 42;
  /// Per-form analysis configuration.
  core::SurfacerOptions surfacer;
  /// Read-only index supplying characteristic-term seeds. MUST NOT be the
  /// output index: reads against an index that is being written are
  /// unsynchronized, and seeds that shift as ingestion progresses would
  /// break run-to-run determinism. May be null.
  const index::InvertedIndex* seed_index = nullptr;
  /// When non-null, the binding annotations of every newly indexed page
  /// are recorded here (paper §5.1); writes are serialized by the driver.
  extract::AnnotationStore* annotations = nullptr;
};

/// Per-form outcome, in work-list order.
struct FormOutcome {
  net::Url page_url;
  Status status = Status::OK();       ///< analysis status
  core::FormSurfacingResult result;   ///< valid when status.ok()
  uint64_t rng_stream = 0;            ///< the form's derived RNG seed
  size_t pages_indexed = 0;
};

/// Run summary.
struct SurfacingDriverStats {
  size_t forms_total = 0;
  size_t forms_analyzed = 0;      ///< completed, non-POST
  size_t forms_skipped_post = 0;
  size_t forms_failed = 0;
  size_t urls_generated = 0;
  size_t pages_indexed = 0;
  size_t analysis_probes = 0;     ///< sum of per-form probe counts
  double wall_seconds = 0.0;
  /// Scheduler counters at the end of the run (shared across all forms).
  net::ProbeSchedulerStats scheduler;
};

/// Fans a surfacing work-list out over worker threads. One driver per
/// run; construct, Run once, read outcomes.
class SurfacingDriver {
 public:
  /// `scheduler` and `out_index` are borrowed and must outlive the
  /// driver. Run fails when `out_index` is null.
  SurfacingDriver(net::ProbeScheduler* scheduler,
                  index::WritableIndex* out_index,
                  SurfacingDriverOptions options = {});

  /// Analyzes every discovered form and ingests the surfaced pages.
  /// Returns the run summary; per-form detail is in outcomes().
  Result<SurfacingDriverStats> Run(const std::vector<DiscoveredForm>& forms);

  /// Per-form outcomes, indexed like the Run work-list.
  const std::vector<FormOutcome>& outcomes() const { return outcomes_; }

  /// The full surfaced URL set (canonical strings, sorted, deduplicated).
  /// This is the determinism witness: identical at any thread count.
  std::vector<std::string> SurfacedUrlSet() const;

 private:
  /// Analyzes work-list entry `i` (and ingests its pages).
  void ProcessForm(const std::vector<DiscoveredForm>& forms, size_t i);

  net::ProbeScheduler* scheduler_;
  index::WritableIndex* out_index_;
  SurfacingDriverOptions options_;
  std::vector<FormOutcome> outcomes_;
  /// Serializes writes to options_.annotations (AnnotationStore is not
  /// itself thread-safe).
  std::mutex annotations_mu_;
};

}  // namespace crawler
}  // namespace deepsurf

#endif  // DEEPSURF_CRAWLER_SURFACING_DRIVER_H_
