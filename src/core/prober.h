// Copyright 2026 The deepsurf Authors.
//
// The form prober: executes prospective submissions during offline
// analysis, caches responses, and reduces each result page to the
// features the algorithms need. Every probe gets a content signature
// (for distinctness tests), a record count (via repeated-structure
// extraction) and per-record hashes; most probes need nothing more. The
// page's term vocabulary (for keyword mining and db-selection detection)
// is derived from the kept record texts only when a reader asks for it.
// Every fetch is counted: analysis load is one of the paper's claims.

#ifndef DEEPSURF_CORE_PROBER_H_
#define DEEPSURF_CORE_PROBER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/form_model.h"
#include "net/fetcher.h"
#include "net/web.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// Reduced view of one probe's result page.
struct ProbeResult {
  int status_code = 0;
  /// Hash of the page's record region text. Pages with the same records
  /// (e.g. sorted differently) share a signature.
  uint64_t signature = 0;
  /// Number of records detected on the page (0 for "no results" pages).
  size_t record_count = 0;
  /// Per-record content hashes, order-independent (for coverage and
  /// distinctness accounting at record granularity).
  std::vector<uint64_t> record_hashes;
  /// Each record's joined text, in page order: the source of the
  /// vocabulary views below.
  std::vector<std::string> record_texts;

  bool HasResults() const { return status_code == 200 && record_count > 0; }

  /// Content-term counts over all records (for vocabulary mining).
  /// Tokenizes every record on each call.
  std::map<std::string, double> TermFrequencies() const;

  /// Number of records (on this page) containing each content term.
  /// Terms that repeat across records are column-domain vocabulary —
  /// what the db-selection detector compares — while terms unique to one
  /// record are record-specific prose. Tokenizes every record on each
  /// call.
  std::map<std::string, double> RecordDocumentFrequencies() const;
};

/// Probe executor with per-form caching and budget accounting. All probe
/// traffic flows through a ProbeScheduler (the shared fetch layer), which
/// adds cross-form response caching and in-flight coalescing underneath.
/// One FormProber analyzes one form and is not itself thread-safe;
/// concurrency happens at the form level, with many probers sharing one
/// scheduler.
class FormProber {
 public:
  /// Probes via `scheduler` (not owned; must outlive the prober).
  /// `budget` caps the number of probes that miss this prober's own
  /// reduced-result cache (such probes are charged to the budget even
  /// when the scheduler serves the raw response from its shared cache,
  /// so a form's analysis is deterministic regardless of what other
  /// forms were analyzed before it); 0 means unlimited.
  FormProber(net::ProbeScheduler* scheduler, const AnalyzedForm& form,
             size_t budget = 0);

  /// Convenience for single-form callers (tests, benches): probes `web`
  /// through an internally owned scheduler.
  FormProber(net::SimulatedWeb* web, const AnalyzedForm& form,
             size_t budget = 0);

  /// Probes one binding. POST forms fail with Unimplemented (the paper's
  /// stated limitation). Budget exhaustion fails with ResourceExhausted.
  Result<ProbeResult> Probe(const Bindings& bindings);

  /// Budget-charged probes so far (excluding this prober's cache hits).
  size_t fetches() const { return fetches_; }

  /// Cache hits served so far (from this prober's own cache).
  size_t cache_hits() const { return cache_hits_; }

  const AnalyzedForm& form() const { return form_; }

 private:
  std::unique_ptr<net::ProbeScheduler> owned_scheduler_;
  net::ProbeScheduler* scheduler_;
  AnalyzedForm form_;
  size_t budget_;
  size_t fetches_ = 0;
  size_t cache_hits_ = 0;
  std::map<std::string, ProbeResult> cache_;
};

/// Reduces a raw result page to probe features (exposed for tests and for
/// the indexability estimator).
ProbeResult ReducePage(int status_code, const std::string& body);

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_PROBER_H_
