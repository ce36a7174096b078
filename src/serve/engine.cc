#include "serve/engine.h"

#include <utility>

#include "index/analyzer.h"

namespace deepsurf {
namespace serve {

namespace {

/// Cached query results kept, least-recently-used evicted first.
constexpr size_t kCacheCapacity = 4096;

std::string JoinTerms(const std::vector<std::string>& terms) {
  std::string joined;
  for (const auto& term : terms) {
    if (!joined.empty()) joined.push_back(' ');
    joined += term;
  }
  return joined;
}

}  // namespace

Engine::Engine(const index::SearchIndex* index, EngineOptions options)
    : index_(index) {
  tracer_ = options.tracer != nullptr ? options.tracer : obs::DefaultTracer();
  c_queries_ = metrics_.counter("serve.queries");
  c_cache_hits_ = metrics_.counter("serve.cache_hits");
  c_cache_misses_ = metrics_.counter("serve.cache_misses");
  c_evictions_ = metrics_.counter("serve.evictions");
  c_invalidations_ = metrics_.counter("serve.invalidations");
  c_deadline_exceeded_ = metrics_.counter("serve.deadline_exceeded");
  h_latency_ms_ = metrics_.histogram("serve.latency_ms");
}

std::string Engine::NormalizeQuery(const std::string& query) {
  return JoinTerms(index::ContentTokens(query));
}

ServeResult Engine::Search(const std::string& query, size_t k) {
  // One trace per query (nullptr when the tracer is off — every span
  // below is then a single pointer test). The root span's duration is
  // the served latency; the histogram sees every query either way.
  std::shared_ptr<obs::TraceContext> trace = tracer_->StartTrace("query");
  auto t0 = std::chrono::steady_clock::now();
  ServeResult result = SearchTraced(query, k, trace.get());
  double ms = std::chrono::duration<double, std::milli>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
  h_latency_ms_->Observe(ms);
  if (trace != nullptr) {
    trace->Tag(obs::TraceContext::kRootSpan, "k", static_cast<uint64_t>(k));
    trace->Tag(obs::TraceContext::kRootSpan, "cache",
               result.from_cache ? "hit" : "miss");
    trace->Finish();
  }
  return result;
}

ServeResult Engine::SearchTraced(const std::string& query, size_t k,
                                 obs::TraceContext* trace) {
  auto terms = index::ContentTokens(query);
  if (trace != nullptr) {
    trace->SetQuery(JoinTerms(terms), static_cast<uint64_t>(k));
  }
  std::string key = JoinTerms(terms);
  key.push_back('\x01');  // terms cannot contain this
  key += std::to_string(k);

  // Read the epoch BEFORE searching: if an ingest lands in between, the
  // entry we store carries the pre-ingest epoch and is discarded on its
  // next lookup — results can be needlessly recomputed, never served
  // stale.
  uint64_t epoch = index_->ingest_epoch();
  {
    obs::ScopedSpan lookup(trace, "serve.cache_lookup",
                           obs::TraceContext::kRootSpan);
    c_queries_->Inc();
    std::lock_guard<std::mutex> lock(mu_);
    auto it = cache_.find(key);
    if (it != cache_.end()) {
      bool valid = it->second.epoch == epoch;
      if (!valid && it->second.epoch > epoch) {
        // The entry was refilled after our snapshot (a concurrent miss
        // raced an ingest); it is still servable if nothing has been
        // ingested since the refill.
        valid = it->second.epoch == index_->ingest_epoch();
      }
      if (valid) {
        c_cache_hits_->Inc();
        lru_.splice(lru_.begin(), lru_, it->second.lru_it);
        return ServeResult{it->second.hits, true};
      }
      c_invalidations_->Inc();
      EraseLocked(it);
    }
    c_cache_misses_->Inc();
  }

  std::vector<index::SearchHit> hits;
  {
    obs::ScopedTrace install(trace);
    obs::ScopedSpan search(trace, "serve.index_search",
                           obs::TraceContext::kRootSpan);
    hits = index_->SearchTerms(terms, k);
  }

  std::lock_guard<std::mutex> lock(mu_);
  auto it = cache_.find(key);
  if (it != cache_.end()) {
    // A concurrent miss on the same key got here first; keep the fresher
    // of the two fills.
    if (it->second.epoch <= epoch) {
      it->second.hits = hits;
      it->second.epoch = epoch;
      lru_.splice(lru_.begin(), lru_, it->second.lru_it);
    }
  } else {
    lru_.push_front(key);
    cache_.emplace(key, CacheEntry{hits, epoch, lru_.begin()});
    while (cache_.size() > kCacheCapacity) {
      auto victim = cache_.find(lru_.back());
      EraseLocked(victim);
      c_evictions_->Inc();
    }
  }
  return ServeResult{std::move(hits), false};
}

ServeResult Engine::Search(const std::string& query, size_t k,
                           Deadline deadline) {
  if (std::chrono::steady_clock::now() >= deadline) {
    c_queries_->Inc();
    c_deadline_exceeded_->Inc();
    ServeResult shed;
    shed.status = Status::DeadlineExceeded("deadline passed before search");
    return shed;
  }
  return Search(query, k);
}

void Engine::EraseLocked(
    std::unordered_map<std::string, CacheEntry>::iterator it) {
  lru_.erase(it->second.lru_it);
  cache_.erase(it);
}

EngineStats Engine::stats() const {
  EngineStats snapshot;
  snapshot.queries = c_queries_->Value();
  snapshot.cache_hits = c_cache_hits_->Value();
  snapshot.cache_misses = c_cache_misses_->Value();
  snapshot.evictions = c_evictions_->Value();
  snapshot.invalidations = c_invalidations_->Value();
  snapshot.deadline_exceeded = c_deadline_exceeded_->Value();
  return snapshot;
}

size_t Engine::cache_size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return cache_.size();
}

}  // namespace serve
}  // namespace deepsurf
