// Copyright 2026 The deepsurf Authors.
//
// The query-serving engine: the front door between user traffic and the
// (sharded) index. The paper's payoff happens here — surfaced deep-web
// pages only matter because they are served across millions of queries
// (§3.2) — and real query logs are heavily repetitive (Zipfian), so a
// result cache absorbs most of the load before it reaches the index.
//
// The engine wraps any SearchIndex with:
//   * a thread-safe LRU result cache keyed on the *normalized* query
//     (analyzer tokens joined, so "Honda  CIVIC" and "honda civic"
//     share one entry) plus k, with hit/miss/eviction counters;
//   * epoch-based invalidation: an entry remembers the index's
//     ingest_epoch at fill time and is discarded the moment the index
//     has grown past it, so a cached result is never stale;
//   * SearchBatch(queries, concurrency): a worker pool answering a
//     query batch with positional results.
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
#include <map>
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
  /// Cached query results kept, least-recently-used evicted first.
  /// 0 disables caching (every query goes to the index).
  size_t cache_capacity = 4096;
  /// Hits retrieved when Search is called without an explicit k.
  size_t default_top_k = 10;
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
  uint64_t queries = 0;        ///< Search calls (batch members included)
  uint64_t cache_hits = 0;     ///< served from the result cache
  uint64_t cache_misses = 0;   ///< went to the index
  uint64_t evictions = 0;      ///< LRU entries dropped
  uint64_t invalidations = 0;  ///< entries discarded because the index grew
  uint64_t batches = 0;        ///< SearchBatch calls
  /// Requests shed with DeadlineExceeded: their deadline had already
  /// passed when a worker picked them up (see Search with Deadline).
  /// Under open-loop load this is the queueing-collapse signal — work
  /// expires in the queue faster than it can be started.
  uint64_t deadline_exceeded = 0;
  /// Invalidations attributed to the ingest-source tag active when the
  /// entry was discarded (SetIngestSource). Lets benches and operators
  /// tell apart who grew the index — e.g. local crawling vs the remote
  /// coordinator's replicated distributed ingest — when reading why the
  /// cache churned.
  std::map<std::string, uint64_t> invalidations_by_source;
  /// Index ingest_epoch observed at the most recent invalidation (0 if
  /// none yet): which corpus version evicted cached results last.
  uint64_t last_invalidation_epoch = 0;

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

  /// Answers one query (top default_top_k).
  ServeResult Search(const std::string& query);

  /// Answers one query (top k).
  ServeResult Search(const std::string& query, size_t k);

  /// A per-request deadline for Search / SearchBatch.
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

  /// Answers a batch with `concurrency` worker threads (values < 2 run
  /// on the calling thread). Results are positional. Identical queries
  /// inside one batch are not coalesced; later ones simply hit the cache
  /// when it is enabled.
  std::vector<ServeResult> SearchBatch(const std::vector<std::string>& queries,
                                       size_t concurrency);

  /// As SearchBatch, but every request carries the same deadline:
  /// `deadline_ms` after the batch was submitted (the whole batch enters
  /// the queue at once, so submission is each request's arrival time). A
  /// request a worker picks up past the deadline is shed with
  /// DeadlineExceeded instead of searched — with a saturated worker pool
  /// the tail of a too-large batch expires, which is how queueing
  /// collapse becomes measurable instead of an unbounded stall.
  std::vector<ServeResult> SearchBatch(const std::vector<std::string>& queries,
                                       size_t concurrency, double deadline_ms);

  /// The normalized form of a query — the analyzer tokens joined by
  /// single spaces — which prefixes its cache key (the key also encodes
  /// k). Exposed for tests.
  static std::string NormalizeQuery(const std::string& query);

  /// Tags subsequent ingest activity for invalidation accounting: cache
  /// entries discarded from now on are attributed to `source` in
  /// stats().invalidations_by_source. Callers set it when they switch
  /// what is feeding the index (e.g. "crawl", "surfacing",
  /// "distributed-ingest"); the default tag is "ingest".
  void SetIngestSource(std::string source);

  /// Counter snapshot.
  EngineStats stats() const;

  /// This engine's own counters, all under the fixed "serve." prefix.
  /// No other instance writes to them.
  const obs::MetricsRegistry& metrics() const { return metrics_; }
  /// The tracer queries are sampled into.
  obs::Tracer* tracer() const { return tracer_; }

  /// Entries currently cached.
  size_t cache_size() const;

  /// Drops every cached result (counters are kept).
  void ClearCache();

  const index::SearchIndex* index() const { return index_; }
  const EngineOptions& options() const { return options_; }

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

  /// Shared batch worker-pool body; `deadline` applies per request when
  /// `has_deadline` is set.
  std::vector<ServeResult> SearchBatchInternal(
      const std::vector<std::string>& queries, size_t concurrency,
      bool has_deadline, Deadline deadline);

  const index::SearchIndex* index_;
  const EngineOptions options_;

  mutable std::mutex mu_;
  std::unordered_map<std::string, CacheEntry> cache_;
  std::list<std::string> lru_;  ///< front = most recent
  std::string ingest_source_ = "ingest";  ///< active invalidation tag
  /// Per-source invalidation counters, created on first use (the
  /// registry owns the Counter objects). Guarded by mu_.
  std::map<std::string, obs::Counter*> invalidations_by_source_;

  /// Registry-backed counters (EngineStats is their snapshot view).
  obs::MetricsRegistry metrics_;
  obs::Tracer* tracer_;
  obs::Counter* c_queries_;
  obs::Counter* c_cache_hits_;
  obs::Counter* c_cache_misses_;
  obs::Counter* c_evictions_;
  obs::Counter* c_invalidations_;
  obs::Counter* c_batches_;
  obs::Counter* c_deadline_exceeded_;
  obs::Gauge* g_last_invalidation_epoch_;
  obs::LatencyHistogram* h_latency_ms_;
};

}  // namespace serve
}  // namespace deepsurf

#endif  // DEEPSURF_SERVE_ENGINE_H_
