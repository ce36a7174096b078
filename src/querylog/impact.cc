#include "querylog/impact.h"

#include <algorithm>

namespace deepsurf {
namespace querylog {

namespace {

/// Hits retrieved per replayed query.
constexpr size_t kTopK = 10;

}  // namespace

std::vector<double> ImpactReport::CumulativeHostCurve() const {
  std::vector<uint64_t> counts;
  counts.reserve(clicks_by_host.size());
  for (const auto& [host, c] : clicks_by_host) counts.push_back(c);
  std::sort(counts.rbegin(), counts.rend());
  double total = 0.0;
  for (uint64_t c : counts) total += static_cast<double>(c);
  std::vector<double> curve;
  curve.reserve(counts.size());
  double acc = 0.0;
  for (uint64_t c : counts) {
    acc += static_cast<double>(c);
    curve.push_back(total > 0 ? acc / total : 0.0);
  }
  return curve;
}

size_t ImpactReport::HostsForFraction(double fraction) const {
  auto curve = CumulativeHostCurve();
  for (size_t i = 0; i < curve.size(); ++i) {
    if (curve[i] >= fraction) return i + 1;
  }
  return curve.size();
}

ImpactReport MeasureImpact(QueryStream* stream,
                           const index::SearchIndex& index,
                           const ImpactOptions& options) {
  ImpactReport report;
  double deep_rank_sum = 0.0;
  double surface_rank_sum = 0.0;
  size_t surface_clicks = 0;
  for (size_t q = 0; q < options.num_queries; ++q) {
    QueryRecord query = stream->Next();
    ++report.queries;
    auto hits = index.Search(query.text, kTopK);
    if (hits.empty()) continue;
    ++report.queries_with_results;
    bool any_deep = false;
    for (const auto& hit : hits) {
      if (index.doc_ref(hit.doc).is_deep_web) {
        any_deep = true;
        break;
      }
    }
    if (any_deep) ++report.deep_web_in_top_k;
    const auto& clicked = index.doc_ref(hits.front().doc);
    if (clicked.is_deep_web) {
      ++report.deep_web_clicks;
      ++report.clicks_by_host[clicked.source_host];
      deep_rank_sum += static_cast<double>(query.entity_rank);
    } else {
      ++surface_clicks;
      surface_rank_sum += static_cast<double>(query.entity_rank);
    }
  }
  if (report.deep_web_clicks > 0) {
    report.mean_rank_deep_clicks =
        deep_rank_sum / static_cast<double>(report.deep_web_clicks);
  }
  if (surface_clicks > 0) {
    report.mean_rank_surface_clicks =
        surface_rank_sum / static_cast<double>(surface_clicks);
  }
  return report;
}

}  // namespace querylog
}  // namespace deepsurf
