#include "core/indexability.h"

#include <algorithm>
#include <set>

#include "util/stats.h"

namespace deepsurf {
namespace core {

namespace {

/// Greedy selection stops when the marginal new-records-per-URL ratio of
/// the best remaining template drops below this.
constexpr double kMinMarginalGain = 0.02;

}  // namespace

bool IsIndexable(const EvaluatedTemplate& tmpl,
                 const IndexabilityOptions& options) {
  // Only pages with results are sampled, so the median is at least 1.
  if (tmpl.records_per_page.empty()) return false;
  std::vector<double> counts;
  counts.reserve(tmpl.records_per_page.size());
  for (size_t c : tmpl.records_per_page) {
    counts.push_back(static_cast<double>(c));
  }
  double median = stats::Median(counts);
  return median <= static_cast<double>(options.max_records_per_page);
}

SurfacingScheme SelectScheme(const std::vector<TemplateInput>& inputs,
                             const TemplateSearchResult& search,
                             size_t max_urls,
                             const IndexabilityOptions& options) {
  SurfacingScheme scheme;
  std::vector<const EvaluatedTemplate*> candidates;
  for (const auto& t : search.evaluated) {
    if (t.informative && IsIndexable(t, options)) candidates.push_back(&t);
  }
  std::set<uint64_t> covered;
  size_t urls = 0;
  while (!candidates.empty()) {
    const EvaluatedTemplate* best = nullptr;
    double best_ratio = 0.0;
    size_t best_gain = 0;
    for (const EvaluatedTemplate* t : candidates) {
      size_t gain = 0;
      for (uint64_t h : t->sample_record_hashes) {
        if (!covered.count(h)) ++gain;
      }
      size_t cost = TemplateCardinality(inputs, *t);
      if (cost == 0) continue;
      double ratio = static_cast<double>(gain) / static_cast<double>(cost);
      if (best == nullptr || ratio > best_ratio) {
        best = t;
        best_ratio = ratio;
        best_gain = gain;
      }
    }
    if (best == nullptr || best_gain == 0 ||
        best_ratio < kMinMarginalGain) {
      break;
    }
    size_t cost = TemplateCardinality(inputs, *best);
    if (max_urls != 0 && urls + cost > max_urls) {
      candidates.erase(
          std::find(candidates.begin(), candidates.end(), best));
      continue;  // try a cheaper template instead
    }
    scheme.templates.push_back(best);
    urls += cost;
    for (uint64_t h : best->sample_record_hashes) covered.insert(h);
    candidates.erase(std::find(candidates.begin(), candidates.end(), best));
  }
  scheme.estimated_urls = urls;
  scheme.estimated_distinct_records = covered.size();
  return scheme;
}

}  // namespace core
}  // namespace deepsurf
