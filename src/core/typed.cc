#include "core/typed.h"

#include <algorithm>
#include <functional>

#include "util/strings.h"

namespace deepsurf {
namespace core {

const char* DataTypeToString(DataType type) {
  switch (type) {
    case DataType::kUnknown:
      return "unknown";
    case DataType::kSearchBox:
      return "searchbox";
    case DataType::kZipCode:
      return "zipcode";
    case DataType::kCity:
      return "city";
    case DataType::kState:
      return "state";
    case DataType::kDate:
      return "date";
    case DataType::kPrice:
      return "price";
    case DataType::kYear:
      return "year";
  }
  return "?";
}

const std::vector<DataType>& TypedCandidates() {
  static const std::vector<DataType> kTypes = {
      DataType::kZipCode, DataType::kCity,  DataType::kState,
      DataType::kDate,    DataType::kPrice, DataType::kYear};
  return kTypes;
}

const std::vector<std::string>& SampleValues(DataType type) {
  // The dictionaries below stand in for the public value collections the
  // production system mines (USPS zips, gazetteers, ...). They
  // intentionally overlap the value spaces the synthetic sites draw from.
  static const std::vector<std::string> kZips = {
      "10001", "90001", "60601", "77001", "85001", "19101",
      "94101", "98101", "80201", "33101", "30301", "02101"};
  static const std::vector<std::string> kCities = {
      "New York", "Los Angeles", "Chicago", "Houston", "Phoenix",
      "Seattle",  "Denver",      "Boston",  "Atlanta", "Miami",
      "Dallas",   "Portland"};
  static const std::vector<std::string> kStates = {
      "CA", "TX", "NY", "FL", "IL", "WA", "CO", "MA", "GA", "AZ"};
  static const std::vector<std::string> kDates = {
      "2008-03-15", "2008-06-01", "2008-09-20", "2008-11-05",
      "2009-01-10", "2008-07-04", "2008-02-14", "2008-12-25",
      "2008-04-30", "2008-10-31", "2009-02-28", "2008-08-08"};
  static const std::vector<std::string> kPrices = {
      "500", "1000", "2000", "5000", "10000", "20000",
      "50000", "100000", "200000", "400000"};
  static const std::vector<std::string> kYears = {
      "1995", "1998", "2000", "2002", "2004", "2006", "2008", "1992"};
  static const std::vector<std::string> kEmpty = {};
  switch (type) {
    case DataType::kZipCode:
      return kZips;
    case DataType::kCity:
      return kCities;
    case DataType::kState:
      return kStates;
    case DataType::kDate:
      return kDates;
    case DataType::kPrice:
      return kPrices;
    case DataType::kYear:
      return kYears;
    default:
      return kEmpty;
  }
}

bool NameHint(DataType type, const std::string& name,
              const std::string& label) {
  std::string haystack = strings::ToLower(name) + " " +
                         strings::ToLower(label);
  auto has = [&](std::string_view needle) {
    return strings::Contains(haystack, needle);
  };
  switch (type) {
    case DataType::kZipCode:
      return has("zip") || has("postal");
    case DataType::kCity:
      return has("city") || has("town") || has("where") ||
             has("destination");
    case DataType::kState:
      return has("state");
    case DataType::kDate:
      return has("date") || has("when") || has("published") ||
             has("posted") || has("yyyy");
    case DataType::kPrice:
      return has("price") || has("salary") || has("cost") || has("$");
    case DataType::kYear:
      return has("year");
    default:
      return false;
  }
}

namespace {

/// Probes planned per candidate type and for the search-box test.
constexpr size_t kSamplesPerType = 6;
constexpr size_t kGarbageProbes = 3;
/// A type must succeed on at least this fraction of samples...
constexpr double kMinHitRate = 0.34;
/// ...and beat garbage by at least this margin.
constexpr double kMargin = 0.25;
/// Site words probed to detect search boxes (hit rate needed).
constexpr double kSearchBoxMinHitRate = 0.4;

/// Success = the probe produced a page with at least one record. Plans
/// min(limit, values.size()) probes and returns hits over that planned
/// count. The test is sequential: `accepts` is the caller's acceptance
/// rule on the final rate (monotone: a higher rate never fails where a
/// lower one passes), and once the hits still possible cannot reach the
/// fewest it accepts, the remaining probes are skipped. A rate that
/// stopped early can only fail `accepts`, just as the full rate would.
Result<double> HitRate(FormProber* prober, const std::string& input_name,
                       const std::vector<std::string>& values, size_t limit,
                       const std::function<bool(double)>& accepts,
                       size_t* probes_used) {
  const size_t planned = std::min(limit, values.size());
  if (planned == 0) return 0.0;
  auto rate = [planned](size_t hits) {
    return static_cast<double>(hits) / static_cast<double>(planned);
  };
  size_t needed = 0;  // planned + 1 when no rate passes
  while (needed <= planned && !accepts(rate(needed))) ++needed;
  size_t hits = 0;
  for (size_t i = 0; i < planned; ++i) {
    if (hits + (planned - i) < needed) break;  // out of reach
    ++*probes_used;
    auto result = prober->Probe({{input_name, values[i]}});
    if (!result.ok()) {
      if (result.status().IsResourceExhausted()) return result.status();
      continue;  // transient failure counts as a miss
    }
    if (result->HasResults()) ++hits;
  }
  return rate(hits);
}

}  // namespace

Result<TypeVerdict> RecognizeType(
    FormProber* prober, const std::string& input_name,
    const std::string& label,
    const std::vector<std::string>& context_words) {
  TypeVerdict verdict;

  // 1. Garbage baseline: random-looking strings that belong to no value
  //    space. A box that returns results for these matches everything.
  static const std::vector<std::string> kGarbage = {
      "xqzkvwpt", "zzqy1742", "vkwqjxx", "qqqzzzv", "xjqv9wz"};
  DEEPSURF_ASSIGN_OR_RETURN(
      verdict.garbage_rate,
      HitRate(prober, input_name, kGarbage, kGarbageProbes,
              [](double) { return true; }, &verdict.probes_used));

  // 2. Search-box test first: a box that retrieves records for the
  //    site's characteristic prose accepts arbitrary keywords, and such a
  //    box would also "accept" typed values (years, city names appear in
  //    record text), so the typed tests below would misfire on it.
  //    Digit-only context words are excluded — a numeric range bound
  //    "accepts" them too, which would fake a search box.
  std::vector<std::string> prose_context;
  for (const auto& w : context_words) {
    if (!strings::IsDigits(w)) prose_context.push_back(w);
  }
  auto is_search_box = [&](double rate) {
    return rate >= kSearchBoxMinHitRate &&
           rate >= verdict.garbage_rate + kMargin;
  };
  DEEPSURF_ASSIGN_OR_RETURN(
      double search_rate,
      HitRate(prober, input_name, prose_context, kSamplesPerType,
              is_search_box, &verdict.probes_used));
  if (is_search_box(search_rate)) {
    verdict.type = DataType::kSearchBox;
    verdict.hit_rate = search_rate;
    return verdict;
  }

  // 3. Typed candidates, name-hinted types first (cheaper to confirm).
  std::vector<DataType> order = TypedCandidates();
  std::stable_sort(order.begin(), order.end(),
                   [&](DataType a, DataType b) {
                     return NameHint(a, input_name, label) >
                            NameHint(b, input_name, label);
                   });
  DataType best = DataType::kUnknown;
  double best_rate = 0.0;
  auto beats_best = [&](double rate) {
    return rate >= kMinHitRate && rate >= verdict.garbage_rate + kMargin &&
           rate > best_rate;
  };
  for (DataType type : order) {
    DEEPSURF_ASSIGN_OR_RETURN(
        double rate,
        HitRate(prober, input_name, SampleValues(type), kSamplesPerType,
                beats_best, &verdict.probes_used));
    if (beats_best(rate)) {
      best = type;
      best_rate = rate;
      if (rate >= 0.99) break;  // cannot be beaten; save probes
    }
  }
  if (best != DataType::kUnknown) {
    // Disambiguate equality-typed boxes from numeric range bounds. Zip
    // samples are numeric, so a >=-semantics input "accepts" them too.
    // The decisive probe: the value "0" retrieves *everything* on a
    // lower bound (everything is >= 0) but *nothing* on a zip-equality
    // box (no record has zip 0); symmetrically, an absurdly large value
    // retrieves everything on an upper bound. Two cached probes settle
    // it, pagination notwithstanding.
    if (best == DataType::kZipCode) {
      ++verdict.probes_used;
      auto zero = prober->Probe({{input_name, "0"}});
      ++verdict.probes_used;
      auto huge = prober->Probe({{input_name, "999999999"}});
      bool lower_bound = zero.ok() && zero->HasResults();
      bool upper_bound = huge.ok() && huge->HasResults();
      if (lower_bound || upper_bound) {
        best = DataType::kPrice;  // a numeric range bound, not a zip box
      }
    }
    verdict.type = best;
    verdict.hit_rate = best_rate;
    return verdict;
  }

  verdict.type = DataType::kUnknown;
  verdict.hit_rate = search_rate;
  return verdict;
}

}  // namespace core
}  // namespace deepsurf
