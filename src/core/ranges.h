// Copyright 2026 The deepsurf Authors.
//
// Range-pair detection and value-band selection (paper §4.2). Forms often
// carry (min, max) input pairs over one numeric property; treating them
// independently wastes URLs on invalid/overlapping ranges. Candidates are
// mined from name affix patterns (min_/max_, _from/_to, _low/_high, ...)
// and from matching numeric select menus, then *confirmed by probing*:
// a genuine pair yields results for (min=lo, max=hi) and an empty page
// for the inverted (min=hi, max=lo) submission. Confirmed pairs are
// compiled into k disjoint value bands that partition the observed value
// space — the "10 URLs instead of 120" compilation.

#ifndef DEEPSURF_CORE_RANGES_H_
#define DEEPSURF_CORE_RANGES_H_

#include <string>
#include <vector>

#include "core/prober.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// A detected range pair with its compiled bands.
struct RangePair {
  std::string min_input;
  std::string max_input;
  bool confirmed = false;   ///< probe confirmation passed
  bool from_names = false;  ///< candidate came from name patterns
  /// Disjoint (min_value, max_value) bands covering the value space.
  std::vector<std::pair<std::string, std::string>> bands;
  size_t probes_used = 0;
};

/// Splits `name` into (affix kind, stem) when it matches a known range
/// affix pattern. Returns +1 for a max-side affix, -1 for min-side, 0 for
/// no match. Exposed for tests.
int ClassifyRangeAffix(const std::string& name, std::string* stem);

/// Detects and confirms range pairs on the prober's form. `numeric_seed`
/// supplies numeric probe values per input when the input is a text box
/// (typically from typed-input recognition or from numbers mined off the
/// default result page); selects use their own numeric options. A
/// confirmed pair compiles into at most ten bands.
Result<std::vector<RangePair>> DetectRanges(
    FormProber* prober,
    const std::vector<std::pair<std::string, std::vector<double>>>&
        numeric_seed);

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_RANGES_H_
