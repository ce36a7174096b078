// Copyright 2026 The deepsurf Authors.
//
// Impact analysis: replays a query stream against the index and measures
// where deep-web (surfaced) results actually matter — the machinery
// behind the paper's "top 10,000 forms account for only 50% of deep-web
// results; even the top 100,000 only 85%" observation and its Figure-
// shaped cumulative-impact curve.

#ifndef DEEPSURF_QUERYLOG_IMPACT_H_
#define DEEPSURF_QUERYLOG_IMPACT_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "index/search_index.h"
#include "querylog/query_stream.h"

namespace deepsurf {
namespace querylog {

/// The click model: the user clicks the top-ranked hit; a deep-web result
/// "impacts" a query when it is that clicked hit (stricter than just
/// appearing in the top 10 hits retrieved per query).
struct ImpactOptions {
  size_t num_queries = 20000;
};

/// Aggregated impact measurements.
struct ImpactReport {
  size_t queries = 0;
  size_t queries_with_results = 0;
  /// Queries whose clicked (top) result is a surfaced deep-web page.
  size_t deep_web_clicks = 0;
  /// Queries where a deep-web page appears anywhere in the top 10 hits.
  size_t deep_web_in_top_k = 0;
  /// Per-host deep-web click counts (host == form site).
  std::map<std::string, uint64_t> clicks_by_host;
  /// Mean entity rank of deep-clicked vs surface-clicked queries — the
  /// "impact is on the long tail" signal.
  double mean_rank_deep_clicks = 0.0;
  double mean_rank_surface_clicks = 0.0;

  /// Cumulative impact curve: entry i = fraction of all deep-web clicks
  /// contributed by the top (i+1) hosts when hosts are ordered by their
  /// click counts, descending. (The paper's top-10k/top-100k statement is
  /// two points of this curve.)
  std::vector<double> CumulativeHostCurve() const;

  /// Smallest number of hosts covering `fraction` of deep-web clicks.
  size_t HostsForFraction(double fraction) const;
};

/// Replays `options.num_queries` queries and measures impact. Serving
/// goes through the SearchIndex interface, so the replay runs unchanged
/// against a single InvertedIndex or the sharded serving path.
ImpactReport MeasureImpact(QueryStream* stream,
                           const index::SearchIndex& index,
                           const ImpactOptions& options);

}  // namespace querylog
}  // namespace deepsurf

#endif  // DEEPSURF_QUERYLOG_IMPACT_H_
