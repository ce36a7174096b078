#include "net/fetcher.h"

#include "util/logging.h"

namespace deepsurf {
namespace net {

namespace {

/// Cached responses kept, least-recently-used evicted first.
constexpr size_t kCacheCapacity = 4096;

}  // namespace

ProbeScheduler::ProbeScheduler(SimulatedWeb* web) : web_(web) {}

void ProbeScheduler::InsertLocked(const std::string& key,
                                  const Result<HttpResponse>& r) {
  // Transport errors and server errors (5xx) are treated as transient and
  // never cached — one flaky response must not poison a URL for the
  // scheduler's whole lifetime. Deterministic outcomes (2xx-4xx pages)
  // are cached.
  if (!r.ok() || r->status_code >= 500) return;
  // Only the key's single in-flight leader reaches here, and a new leader
  // cannot start while the key is cached — the key is always absent.
  lru_.push_front(key);
  auto [it, inserted] = cache_.emplace(key, CacheEntry{r, lru_.begin()});
  DS_CHECK(inserted) << "duplicate probe cache insert: " << key;
  while (cache_.size() > kCacheCapacity) {
    const std::string& victim = lru_.back();
    cache_.erase(victim);
    lru_.pop_back();
    ++stats_.evictions;
  }
}

Result<HttpResponse> ProbeScheduler::Fetch(const Url& url) {
  const std::string key = url.ToCanonicalString();
  std::shared_ptr<InFlight> flight;
  {
    std::unique_lock<std::mutex> lock(mu_);
    ++stats_.requests;
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      ++stats_.cache_hits;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
      return it->second.response;
    }
    auto fit = in_flight_.find(key);
    if (fit != in_flight_.end()) {
      // Same URL being fetched right now — wait for that result instead
      // of issuing a duplicate request.
      ++stats_.coalesced;
      ++stats_.cache_hits;
      flight = fit->second;
      flight->done_cv.wait(lock, [&] { return flight->done; });
      return *flight->response;
    }
    ++stats_.cache_misses;
    flight = std::make_shared<InFlight>();
    in_flight_.emplace(key, flight);
  }

  Result<HttpResponse> response = web_->Get(url);

  {
    std::lock_guard<std::mutex> lock(mu_);
    InsertLocked(key, response);
    flight->response = std::make_unique<Result<HttpResponse>>(response);
    flight->done = true;
    in_flight_.erase(key);
  }
  flight->done_cv.notify_all();
  return response;
}

ProbeSchedulerStats ProbeScheduler::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

size_t ProbeScheduler::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace net
}  // namespace deepsurf
