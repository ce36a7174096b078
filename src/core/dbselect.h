// Copyright 2026 The deepsurf Authors.
//
// Database-selection detection (paper §4.2): a select menu whose value
// chooses *which underlying database* a keyword box searches (movies vs
// music vs software vs games). The tell-tale signal is distributional:
// probing each option and comparing the result-page vocabularies shows a
// high Jensen-Shannon divergence between options. A field-equality select
// over a column that shapes the rest of the record (job category, book
// subject) can diverge as much, so a divergence is confirmed through the
// keyword box with the select unbound: a db selector's unbound form
// searches one database, a field-equality select's searches them all.
// Once detected, keywords are mined per-option ("microsoft" for software,
// not for movies).

#ifndef DEEPSURF_CORE_DBSELECT_H_
#define DEEPSURF_CORE_DBSELECT_H_

#include <map>
#include <string>
#include <vector>

#include "core/prober.h"
#include "core/probing.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// Verdict for one (select, text box) pair.
struct DbSelectVerdict {
  std::string select_input;
  std::string text_input;
  bool is_db_selector = false;
  double mean_jsd_bits = 0.0;
  /// Per-option keyword sets (filled only when detected and mined).
  std::map<std::string, std::vector<std::string>> keywords_by_option;
  size_t probes_used = 0;
};

/// Tests whether `select_input` selects among databases for
/// `text_input`, the form's keyword box. Pure detection; no keyword
/// mining. Up to four options are probed with the box left free, and
/// the mean pairwise Jensen-Shannon divergence of their domain
/// vocabularies (terms repeating across a page's records) decides. A
/// divergence above the threshold is confirmed by probing each sampled
/// option's distinctive term in the keyword box with the select
/// unbound: when two or more of them retrieve a page other than the
/// unconstrained one, the box searches all options at once and the
/// select is an ordinary field-equality filter.
Result<DbSelectVerdict> DetectDbSelector(FormProber* prober,
                                         const std::string& select_input,
                                         const std::string& text_input);

/// Detection plus per-option keyword mining via iterative probing, each
/// option mined under `per_option`. When the probe budget runs out during
/// mining, the verdict keeps the options mined in full before it.
Result<DbSelectVerdict> MineDbSelector(
    FormProber* prober, const std::string& select_input,
    const std::string& text_input,
    const std::vector<std::string>& seed_words,
    const std::function<double(const std::string&)>& df_lookup,
    const ProbingOptions& per_option = {});

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_DBSELECT_H_
