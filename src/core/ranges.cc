#include "core/ranges.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/strings.h"

namespace deepsurf {
namespace core {

namespace {

/// Bands a confirmed pair compiles into, at most.
constexpr size_t kMaxBands = 10;

struct Affix {
  const char* prefix;  ///< nullptr when it is a suffix pattern
  const char* suffix;
  int side;  ///< -1 min, +1 max
};

const Affix kAffixes[] = {
    {"min_", nullptr, -1}, {"max_", nullptr, +1},
    {"min", nullptr, -1},  {"max", nullptr, +1},
    {"lo_", nullptr, -1},  {"hi_", nullptr, +1},
    {"from_", nullptr, -1},{"to_", nullptr, +1},
    {"start_", nullptr, -1},{"end_", nullptr, +1},
    {nullptr, "_from", -1},{nullptr, "_to", +1},
    {nullptr, "_min", -1}, {nullptr, "_max", +1},
    {nullptr, "min", -1},  {nullptr, "max", +1},
    {nullptr, "_low", -1}, {nullptr, "_high", +1},
    {nullptr, "_start", -1},{nullptr, "_end", +1},
};

}  // namespace

int ClassifyRangeAffix(const std::string& raw, std::string* stem) {
  std::string name = strings::ToLower(raw);
  for (const auto& a : kAffixes) {
    if (a.prefix != nullptr && strings::StartsWith(name, a.prefix)) {
      std::string candidate = name.substr(std::string(a.prefix).size());
      if (!candidate.empty()) {
        *stem = candidate;
        return a.side;
      }
    }
    if (a.suffix != nullptr && strings::EndsWith(name, a.suffix)) {
      std::string candidate =
          name.substr(0, name.size() - std::string(a.suffix).size());
      if (!candidate.empty()) {
        *stem = candidate;
        return a.side;
      }
    }
  }
  return 0;
}

namespace {

/// Numeric values of a select input's options (empty when non-numeric).
std::vector<double> NumericOptions(const AnalyzedInput& input) {
  std::vector<double> out;
  for (const auto& v : input.select_values) {
    if (v.empty()) continue;
    auto parsed = strings::ParseDouble(v);
    if (!parsed.ok()) return {};
    out.push_back(*parsed);
  }
  std::sort(out.begin(), out.end());
  return out;
}

std::string FormatBoundary(double v) {
  if (v == std::floor(v) && std::abs(v) < 1e15) {
    return std::to_string(static_cast<long long>(v));
  }
  return strings::Format("%.2f", v);
}

/// Probe-confirms that (lo -> min_input, hi -> max_input) behaves like a
/// range: valid order yields results, inverted order yields none.
Result<bool> ConfirmPair(FormProber* prober, const std::string& min_input,
                         const std::string& max_input, double lo, double hi,
                         size_t* probes) {
  if (lo >= hi) return false;
  *probes += 2;
  auto valid = prober->Probe({{min_input, FormatBoundary(lo)},
                              {max_input, FormatBoundary(hi)}});
  if (!valid.ok()) return valid.status();
  auto inverted = prober->Probe({{min_input, FormatBoundary(hi)},
                                 {max_input, FormatBoundary(lo)}});
  if (!inverted.ok()) return inverted.status();
  return valid->HasResults() && !inverted->HasResults();
}

std::vector<std::pair<std::string, std::string>> MakeBands(
    const std::vector<double>& boundaries) {
  std::vector<std::pair<std::string, std::string>> bands;
  if (boundaries.size() < 2) return bands;
  // Thin the boundary list to at most kMaxBands+1 entries, keeping ends.
  std::vector<double> kept;
  size_t n = boundaries.size();
  size_t want = std::min(n, kMaxBands + 1);
  for (size_t i = 0; i < want; ++i) {
    size_t idx = i * (n - 1) / (want - 1);
    kept.push_back(boundaries[idx]);
  }
  kept.erase(std::unique(kept.begin(), kept.end()), kept.end());
  for (size_t i = 0; i + 1 < kept.size(); ++i) {
    bands.emplace_back(FormatBoundary(kept[i]), FormatBoundary(kept[i + 1]));
  }
  return bands;
}

}  // namespace

Result<std::vector<RangePair>> DetectRanges(
    FormProber* prober,
    const std::vector<std::pair<std::string, std::vector<double>>>&
        numeric_seed) {
  const AnalyzedForm& form = prober->form();
  std::vector<RangePair> out;
  std::set<std::string> consumed;

  auto seed_for = [&](const std::string& name) -> std::vector<double> {
    for (const auto& [n, values] : numeric_seed) {
      if (n == name) return values;
    }
    return {};
  };

  // Candidate generation pass 1: name affix patterns with shared stems.
  std::map<std::string, std::pair<std::string, std::string>> stems;
  for (const auto& input : form.inputs) {
    std::string stem;
    int side = ClassifyRangeAffix(input.name, &stem);
    if (side == -1) stems[stem].first = input.name;
    if (side == +1) stems[stem].second = input.name;
  }
  struct Candidate {
    std::string min_input;
    std::string max_input;
    bool from_names;
  };
  std::vector<Candidate> candidates;
  for (const auto& [stem, pair] : stems) {
    if (!pair.first.empty() && !pair.second.empty()) {
      candidates.push_back(Candidate{pair.first, pair.second, true});
    }
  }
  // Pass 2: adjacent selects with identical numeric option lists (covers
  // obfuscated names).
  for (size_t i = 0; i + 1 < form.inputs.size(); ++i) {
    const auto& a = form.inputs[i];
    const auto& b = form.inputs[i + 1];
    if (!a.is_select || !b.is_select) continue;
    auto na = NumericOptions(a);
    auto nb = NumericOptions(b);
    if (na.empty() || na != nb) continue;
    bool already = false;
    for (const auto& c : candidates) {
      if ((c.min_input == a.name && c.max_input == b.name) ||
          (c.min_input == b.name && c.max_input == a.name)) {
        already = true;
      }
    }
    if (!already) candidates.push_back(Candidate{a.name, b.name, false});
  }

  // Confirmation + band compilation.
  for (const auto& cand : candidates) {
    if (consumed.count(cand.min_input) || consumed.count(cand.max_input)) {
      continue;
    }
    const AnalyzedInput* min_in = form.FindInput(cand.min_input);
    const AnalyzedInput* max_in = form.FindInput(cand.max_input);
    if (min_in == nullptr || max_in == nullptr) continue;

    // Assemble the boundary value pool.
    std::vector<double> boundaries;
    if (min_in->is_select) {
      boundaries = NumericOptions(*min_in);
    } else {
      boundaries = seed_for(cand.min_input);
      if (boundaries.empty()) boundaries = seed_for(cand.max_input);
      std::sort(boundaries.begin(), boundaries.end());
    }
    boundaries.erase(std::unique(boundaries.begin(), boundaries.end()),
                     boundaries.end());
    if (boundaries.size() < 2) continue;

    RangePair pair;
    pair.min_input = cand.min_input;
    pair.max_input = cand.max_input;
    pair.from_names = cand.from_names;
    double lo = boundaries.front();
    double hi = boundaries.back();
    DEEPSURF_ASSIGN_OR_RETURN(
        bool ok, ConfirmPair(prober, pair.min_input, pair.max_input, lo, hi,
                             &pair.probes_used));
    if (!ok) {
      // Maybe the name heuristic got the sides backwards.
      DEEPSURF_ASSIGN_OR_RETURN(
          bool swapped,
          ConfirmPair(prober, pair.max_input, pair.min_input, lo, hi,
                      &pair.probes_used));
      if (swapped) {
        std::swap(pair.min_input, pair.max_input);
        ok = true;
      }
    }
    pair.confirmed = ok;
    if (ok) {
      pair.bands = MakeBands(boundaries);
      consumed.insert(pair.min_input);
      consumed.insert(pair.max_input);
    }
    out.push_back(std::move(pair));
  }
  return out;
}

}  // namespace core
}  // namespace deepsurf
