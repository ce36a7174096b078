// Copyright 2026 The deepsurf Authors.
//
// The query-serving engine: the front door between user traffic and the
// (sharded) index. The paper's payoff happens here — surfaced deep-web
// pages only matter because they are served across millions of queries
// (§3.2) — and real query logs are heavily repetitive (Zipfian), so a
// result cache absorbs most of the load before it reaches the index.
//
// The engine wraps any SearchIndex with:
//   * a thread-safe LRU result cache of 4096 entries keyed on the
//     *normalized* query (analyzer tokens joined, so "Honda  CIVIC" and
//     "honda civic" share one entry) plus k, with hit/miss/eviction
//     counters;
//   * epoch-based invalidation: an entry remembers the index's
//     ingest_epoch at fill time and is discarded the moment the index
//     has grown past it, so a cached result is never stale;
//   * per-request deadlines: a request admitted past its deadline is
//     shed instead of searched.
//
// Serving and caching never change ranking: for any query stream the
// engine's hits are byte-identical to calling the index directly.
//
// Concurrent ingest: safe exactly when the underlying index's reads are
// synchronized against its writes (ShardedIndex yes, bare InvertedIndex
// no). The epoch is read *before* the index search, so an ingest racing
// a fill can only make the new entry immediately invalid, never stale.

#ifndef DEEPSURF_SERVE_ENGINE_H_
#define DEEPSURF_SERVE_ENGINE_H_

#include <chrono>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "index/search_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/status.h"

namespace deepsurf {
namespace serve {

struct EngineOptions {
  /// Tracer queries are sampled into (obs/trace.h); nullptr = the
  /// process-global obs::DefaultTracer(), which is inert unless
  /// installed. The engine starts one trace per query and installs it
  /// as the thread's CurrentTrace so the index layer below can attach
  /// spans without an API change.
  obs::Tracer* tracer = nullptr;
};

/// Cumulative serving counters of one engine (all since construction).
/// A thin snapshot view over the engine's own registry (metrics()) —
/// the registry is the source of truth, this struct is the stable API.
struct EngineStats {
  uint64_t queries = 0;        ///< Search calls
  uint64_t cache_hits = 0;     ///< served from the result cache
  uint64_t cache_misses = 0;   ///< went to the index
  uint64_t evictions = 0;      ///< LRU entries dropped
  uint64_t invalidations = 0;  ///< entries discarded because the index grew
  /// Requests shed with DeadlineExceeded: their deadline had already
  /// passed at admission (see Search with Deadline). Under open-loop
  /// load this is the queueing-collapse signal — work expires in the
  /// queue faster than it can be started.
  uint64_t deadline_exceeded = 0;

  double HitRate() const {
    return queries == 0 ? 0.0
                        : static_cast<double>(cache_hits) /
                              static_cast<double>(queries);
  }
};

/// One served query. `status` is OK for a normally served result and
/// DeadlineExceeded (with empty hits) for a request shed past its
/// deadline; existing no-deadline callers never see a non-OK status.
struct ServeResult {
  std::vector<index::SearchHit> hits;
  bool from_cache = false;
  Status status = Status::OK();
};

/// Thread-safe caching front end over a SearchIndex. All methods may be
/// called from any thread.
class Engine {
 public:
  /// `index` is borrowed and must outlive the engine.
  explicit Engine(const index::SearchIndex* index, EngineOptions options = {});

  Engine(const Engine&) = delete;
  Engine& operator=(const Engine&) = delete;

  /// Answers one query (top k).
  ServeResult Search(const std::string& query, size_t k);

  /// A per-request deadline for Search.
  using Deadline = std::chrono::steady_clock::time_point;

  /// Answers one query (top k) unless `deadline` has already passed, in
  /// which case the request is shed: DeadlineExceeded status, empty
  /// hits, no index work, counted in stats().deadline_exceeded. The
  /// check happens at admission — a search that has started runs to
  /// completion (index searches are not cancellable), so the deadline
  /// bounds *queueing* delay, which is exactly what an open-loop
  /// harness needs to observe: when offered load exceeds capacity,
  /// requests expire behind the backlog instead of blocking forever and
  /// silently throttling the offered rate.
  ServeResult Search(const std::string& query, size_t k, Deadline deadline);

  /// The normalized form of a query — the analyzer tokens joined by
  /// single spaces — which prefixes its cache key (the key also encodes
  /// k). Exposed for tests.
  static std::string NormalizeQuery(const std::string& query);

  /// Counter snapshot.
  EngineStats stats() const;

  /// This engine's own counters, all under the fixed "serve." prefix.
  /// No other instance writes to them.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Entries currently cached.
  size_t cache_size() const;

 private:
  struct CacheEntry {
    std::vector<index::SearchHit> hits;
    uint64_t epoch = 0;  ///< index ingest_epoch when this was computed
    std::list<std::string>::iterator lru_it;
  };

  /// Removes `it`'s entry from cache_ and lru_. Requires mu_ held.
  void EraseLocked(std::unordered_map<std::string, CacheEntry>::iterator it);

  /// The traced body of Search(query, k); `trace` may be null.
  ServeResult SearchTraced(const std::string& query, size_t k,
                           obs::TraceContext* trace);

  const index::SearchIndex* index_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  ///< front = most recent

  /// Registry-backed counters (EngineStats is their snapshot view).
  obs::MetricsRegistry metrics_;
  obs::Tracer* tracer_;
  obs::Counter* c_queries_;
  obs::Counter* c_cache_hits_;
  obs::Counter* c_cache_misses_;
  obs::Counter* c_evictions_;
  obs::Counter* c_invalidations_;
  obs::Counter* c_deadline_exceeded_;
  obs::LatencyHistogram* h_latency_ms_;
};

}  // namespace serve
}  // namespace deepsurf

#endif  // DEEPSURF_SERVE_ENGINE_H_
