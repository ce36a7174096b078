#include "crawler/crawler.h"

#include <deque>

#include "html/parser.h"
#include "html/text.h"
#include "util/logging.h"

namespace deepsurf {
namespace crawler {

Crawler::Crawler(net::SimulatedWeb* web, index::WritableIndex* index,
                 CrawlOptions options)
    : web_(web), index_(index), options_(options) {
  DS_CHECK(web_ != nullptr) << "crawler needs a web";
  DS_CHECK(!options_.index_pages || index_ != nullptr)
      << "index_pages requires an index";
}

bool Crawler::Visited(const net::Url& url) const {
  return visited_.count(url.ToCanonicalString()) > 0;
}

Status Crawler::Crawl(const std::vector<std::string>& seeds) {
  std::deque<net::Url> frontier;
  for (const auto& seed : seeds) {
    DEEPSURF_ASSIGN_OR_RETURN(net::Url url, net::Url::Parse(seed));
    frontier.push_back(std::move(url));
  }
  while (!frontier.empty() && stats_.pages_fetched < options_.max_pages) {
    net::Url url = std::move(frontier.front());
    frontier.pop_front();
    std::string canonical = url.ToCanonicalString();
    if (visited_.count(canonical)) continue;
    size_t& host_count = per_host_[url.host()];
    if (host_count >= options_.max_pages_per_host) continue;
    visited_.insert(canonical);
    ++host_count;

    auto resp = web_->Get(url);
    ++stats_.pages_fetched;
    if (!resp.ok() || resp->status_code != 200) {
      ++stats_.fetch_errors;
      continue;
    }
    auto dom = html::Parse(resp->body);
    std::string title = html::ExtractTitle(*dom);
    if (options_.index_pages) {
      // Crawled pages are the surface web; surfaced pages enter the
      // index through SurfacingDriver instead.
      auto added = index_->AddDocument(url.ToCanonicalString(), title,
                                       html::ExtractText(*dom),
                                       /*is_deep_web=*/false, url.host());
      if (added.ok()) ++stats_.pages_indexed;
    }
    // Forms: dedup by (host, resolved action) so one site's form counts
    // once no matter how many pages embed it.
    for (auto& form : html::ExtractForms(*dom)) {
      auto action = net::Url::Resolve(url, form.action);
      if (!action.ok()) continue;
      std::string key = action->ToCanonicalString();
      if (seen_form_keys_.count(key)) continue;
      seen_form_keys_.insert(key);
      ++stats_.forms_found;
      forms_.push_back(
          DiscoveredForm{url, std::move(form), html::ExtractScriptText(*dom)});
    }
    // Enqueue same-web links.
    for (const auto& link : html::ExtractLinks(*dom)) {
      auto next = net::Url::Resolve(url, link.href);
      if (!next.ok()) continue;
      if (!web_->HasHost(next->host())) continue;
      if (visited_.count(next->ToCanonicalString())) continue;
      frontier.push_back(std::move(*next));
    }
  }
  return Status::OK();
}

}  // namespace crawler
}  // namespace deepsurf
