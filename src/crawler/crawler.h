// Copyright 2026 The deepsurf Authors.
//
// Breadth-first link-following web crawler. This is the *surface* crawler:
// it can only reach pages linked from its seeds — which is exactly why
// deep-web content needs surfacing. It feeds the index, records every
// HTML form it encounters (the surfacing work-list), and is reused after
// surfacing to pursue links *from* surfaced pages (the paper's
// "the web crawler will discover more content over time" observation).

#ifndef DEEPSURF_CRAWLER_CRAWLER_H_
#define DEEPSURF_CRAWLER_CRAWLER_H_

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "html/forms.h"
#include "index/search_index.h"
#include "net/web.h"
#include "util/result.h"

namespace deepsurf {
namespace crawler {

/// One discovered form, with the URL of the page it was found on (needed
/// to resolve the form's relative action) and that page's script text
/// (the Javascript-correlation miner's input).
struct DiscoveredForm {
  net::Url page_url;
  html::Form form;
  std::string page_scripts;
};

/// Crawl limits and behaviour.
struct CrawlOptions {
  size_t max_pages = 100000;       ///< global page budget
  size_t max_pages_per_host = 5000;///< politeness cap
  bool index_pages = true;         ///< insert fetched pages into the index
};

/// Result summary of a crawl.
struct CrawlStats {
  size_t pages_fetched = 0;
  size_t pages_indexed = 0;
  size_t forms_found = 0;
  size_t fetch_errors = 0;
};

/// BFS crawler over a SimulatedWeb.
class Crawler {
 public:
  /// `index` may be null when options.index_pages is false.
  Crawler(net::SimulatedWeb* web, index::WritableIndex* index,
          CrawlOptions options);

  /// Crawls from the given seed URLs. Can be called repeatedly; the
  /// visited set persists so re-crawls only fetch new URLs.
  Status Crawl(const std::vector<std::string>& seeds);

  const std::vector<DiscoveredForm>& forms() const { return forms_; }
  const CrawlStats& stats() const { return stats_; }

  /// True when `url` was already fetched by this crawler.
  bool Visited(const net::Url& url) const;

 private:
  net::SimulatedWeb* web_;
  index::WritableIndex* index_;
  CrawlOptions options_;
  std::set<std::string> visited_;          // canonical URLs
  std::set<std::string> seen_form_keys_;   // host+action dedup
  std::map<std::string, size_t> per_host_;
  std::vector<DiscoveredForm> forms_;
  CrawlStats stats_;
};

}  // namespace crawler
}  // namespace deepsurf

#endif  // DEEPSURF_CRAWLER_CRAWLER_H_
