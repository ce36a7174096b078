// Copyright 2026 The deepsurf Authors.
//
// The probe scheduler: the shared fetch client between all analysis code
// and the (simulated) web. The paper's scale story — millions of forms
// analyzed offline with a light load on each site — needs a fetch layer
// that never issues the same probe twice, across forms or across the
// threads analysing them. The scheduler provides that: a
// normalized-URL-keyed LRU probe cache of 4096 responses with hit/miss
// statistics, and in-flight request coalescing (two threads probing the
// same URL share one fetch). Per-host site load is the web's own count
// (SimulatedWeb::TrafficFor); the surfacer's politeness control is its
// per-form probe budget (SurfacerOptions::probe_budget).

#ifndef DEEPSURF_NET_FETCHER_H_
#define DEEPSURF_NET_FETCHER_H_

#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "net/url.h"
#include "net/web.h"
#include "util/result.h"

namespace deepsurf {
namespace net {

/// Cumulative scheduler counters (all since construction).
struct ProbeSchedulerStats {
  uint64_t requests = 0;        ///< Fetch calls
  uint64_t cache_hits = 0;      ///< served from the probe cache
  uint64_t cache_misses = 0;    ///< went to the network
  uint64_t coalesced = 0;       ///< waited on an identical in-flight fetch
  uint64_t evictions = 0;       ///< LRU entries dropped

  double HitRate() const {
    return requests == 0
               ? 0.0
               : static_cast<double>(cache_hits) /
                     static_cast<double>(requests);
  }
};

/// Deduplicating, thread-safe fetch client over a SimulatedWeb. All
/// methods are safe to call from any thread.
class ProbeScheduler {
 public:
  explicit ProbeScheduler(SimulatedWeb* web);

  ProbeScheduler(const ProbeScheduler&) = delete;
  ProbeScheduler& operator=(const ProbeScheduler&) = delete;

  /// Fetches one URL through the cache. Identical submissions are
  /// deduplicated by the URL's canonical form (query parameters sorted),
  /// so two probes that differ only in parameter order share one cache
  /// entry. Concurrent fetches of the same URL are coalesced into a
  /// single network request. Transport errors and 5xx responses are
  /// treated as transient and are never cached — a later Fetch retries
  /// them.
  Result<HttpResponse> Fetch(const Url& url);

  /// Counter snapshot.
  ProbeSchedulerStats stats() const;

  /// Entries currently cached.
  size_t cache_size() const;

 private:
  struct CacheEntry {
    Result<HttpResponse> response;
    std::list<std::string>::iterator lru_it;
  };
  struct InFlight {
    std::condition_variable done_cv;
    bool done = false;
    std::unique_ptr<Result<HttpResponse>> response;
  };

  /// Inserts into the cache, evicting LRU entries beyond capacity.
  /// Requires mu_ held.
  void InsertLocked(const std::string& key, const Result<HttpResponse>& r);

  SimulatedWeb* web_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  ///< front = most recent
  std::map<std::string, std::shared_ptr<InFlight>> in_flight_;
  ProbeSchedulerStats stats_;
};

}  // namespace net
}  // namespace deepsurf

#endif  // DEEPSURF_NET_FETCHER_H_
