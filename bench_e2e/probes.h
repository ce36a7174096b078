// Copyright 2026 The deepsurf Authors.
//
// Tracing probes of the end-to-end benchmark (e2e_bench.cc). Every probe
// is a decorator over an interface the program already exposes, so the
// traced run times each layer from outside without touching src/:
//
//   TimedWebServer  over net::WebServer      time inside a site's Handle
//   TimedReadIndex  over index::SearchIndex  time in the index below the
//                                            serve::Engine
//   TimedTransport  over remote::Transport   per-RPC latency and frame
//                                            bytes, split by PeekType
//
// plus SpanLog, the in-memory span store the traced run writes out at
// exit. A span records name, start, end, parent and query id. With one
// closed-loop client, every RPC issued between a query's start and end
// belongs to that query, so attribution is a single atomic (the current
// query's span) rather than context threaded through the program. Ingest
// frames are told apart by remote::PeekType and parented to the writer's
// current surfacing span instead.
//
// The untraced run constructs none of these.

#ifndef DEEPSURF_BENCH_E2E_PROBES_H_
#define DEEPSURF_BENCH_E2E_PROBES_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "index/search_index.h"
#include "net/web.h"
#include "remote/transport.h"
#include "remote/wire.h"

namespace deepsurf {
namespace e2e {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One recorded span. Times are steady-clock nanoseconds.
struct BenchSpan {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;    ///< 0 = root
  uint64_t query_id = 0;  ///< 0 = not part of a client query
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Thread-safe in-memory span store plus the two attribution cursors:
/// the client's current query span and the writer's current surfacing
/// span. Query spans are kept for 1 in kKeepQueryEvery queries (the
/// timing accumulators in the probes still see every query) so a
/// 10-second window at ~10k qps stays a few MB.
class SpanLog {
 public:
  static constexpr uint64_t kKeepQueryEvery = 8;

  uint64_t NextId() { return next_id_.fetch_add(1) + 1; }

  void Add(const char* name, uint64_t id, uint64_t parent, uint64_t query_id,
           int64_t start_ns, int64_t end_ns) {
    if (query_id != 0 && query_id % kKeepQueryEvery != 0) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(BenchSpan{name, id, parent, query_id, start_ns, end_ns});
  }

  /// Current client query: its id and the span id of its root span.
  void SetQuery(uint64_t query_id, uint64_t span_id) {
    query_span_.store(span_id);
    query_id_.store(query_id);
  }
  void ClearQuery() { SetQuery(0, 0); }
  uint64_t query_id() const { return query_id_.load(); }
  uint64_t query_span() const { return query_span_.load(); }

  void SetWriterSpan(uint64_t span_id) { writer_span_.store(span_id); }
  uint64_t writer_span() const { return writer_span_.load(); }

  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
  }

  /// Writes one JSON object per line; returns false on I/O failure.
  bool Write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    std::lock_guard<std::mutex> lock(mu_);
    for (const BenchSpan& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"id\":%llu,\"parent\":%llu,"
                   "\"query\":%llu,\"start_ns\":%lld,\"end_ns\":%lld}\n",
                   s.name, static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.query_id),
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::atomic<uint64_t> next_id_{0};
  std::atomic<uint64_t> query_id_{0};
  std::atomic<uint64_t> query_span_{0};
  std::atomic<uint64_t> writer_span_{0};
  mutable std::mutex mu_;
  std::vector<BenchSpan> spans_;
};

/// Times a simulated site's Handle. Requests to one host are already
/// serialized by SimulatedWeb, but several hosts may be handled at once,
/// so the accumulators are atomics.
class TimedWebServer : public net::WebServer {
 public:
  TimedWebServer(std::shared_ptr<net::WebServer> inner, SpanLog* spans)
      : inner_(std::move(inner)), spans_(spans) {}

  net::HttpResponse Handle(const net::HttpRequest& request) override {
    const int64_t t0 = NowNs();
    net::HttpResponse response = inner_->Handle(request);
    const int64_t t1 = NowNs();
    handle_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    spans_->Add("synthweb.handle", spans_->NextId(), spans_->writer_span(), 0,
                t0, t1);
    return response;
  }

  const std::string& host() const override { return inner_->host(); }

  int64_t handle_ns() const { return handle_ns_.load(); }

 private:
  std::shared_ptr<net::WebServer> inner_;
  SpanLog* spans_;
  std::atomic<int64_t> handle_ns_{0};
};

/// Times the serving reads the Engine makes into the index. Reads only:
/// ingest goes to the index through the benchmark's recorder.
class TimedReadIndex : public index::SearchIndex {
 public:
  TimedReadIndex(const index::SearchIndex* inner, SpanLog* spans)
      : inner_(inner), spans_(spans) {}

  std::vector<index::SearchHit> Search(const std::string& query,
                                       size_t k) const override {
    return Timed([&] { return inner_->Search(query, k); });
  }
  std::vector<index::SearchHit> SearchTerms(
      const std::vector<std::string>& terms, size_t k) const override {
    return Timed([&] { return inner_->SearchTerms(terms, k); });
  }
  index::DocInfo doc(index::DocId id) const override { return inner_->doc(id); }
  const index::DocInfo& doc_ref(index::DocId id) const override {
    return inner_->doc_ref(id);
  }
  size_t num_docs() const override { return inner_->num_docs(); }
  uint64_t ingest_epoch() const override { return inner_->ingest_epoch(); }
  index::IndexMemoryUsage MemoryUsage() const override {
    return inner_->MemoryUsage();
  }
  index::SearchStats search_stats() const override {
    return inner_->search_stats();
  }

  int64_t search_ns() const { return search_ns_.load(); }

 private:
  template <typename Fn>
  std::vector<index::SearchHit> Timed(Fn&& fn) const {
    const int64_t t0 = NowNs();
    std::vector<index::SearchHit> hits = fn();
    const int64_t t1 = NowNs();
    search_ns_.fetch_add(t1 - t0, std::memory_order_relaxed);
    spans_->Add("index.search", spans_->NextId(), spans_->query_span(),
                spans_->query_id(), t0, t1);
    return hits;
  }

  const index::SearchIndex* inner_;
  SpanLog* spans_;
  mutable std::atomic<int64_t> search_ns_{0};
};

/// Per-RPC latency and frame bytes at the transport boundary, split by
/// the request's remote::PeekType. Latency runs from Call to the
/// callback (the fabric plus the server's queue and work). Recording can
/// be paused so set-up ingest stays out of the window's numbers. The
/// totals live in a shared core that in-flight callbacks co-own: an
/// abandoned hedge may complete after the decorator is gone.
class TimedTransport : public remote::Transport {
 public:
  enum Kind { kStats = 0, kSearch = 1, kIngest = 2, kOther = 3, kNumKinds };

  struct KindTotals {
    uint64_t calls = 0;
    uint64_t request_bytes = 0;
    uint64_t response_bytes = 0;
    std::vector<double> latency_us;  ///< completed calls only
  };

  /// `spans` must outlive every server behind `inner`.
  TimedTransport(remote::Transport* inner, SpanLog* spans)
      : inner_(inner), core_(std::make_shared<Core>()), spans_(spans) {}

  void set_recording(bool on) { recording_.store(on); }

  void Call(size_t shard, size_t replica, std::string request, Callback done,
            CancelToken cancelled = nullptr) override {
    if (!recording_.load()) {
      inner_->Call(shard, replica, std::move(request), std::move(done),
                   std::move(cancelled));
      return;
    }
    static const char* const kNames[kNumKinds] = {
        "transport.stats_rpc", "transport.search_rpc",
        "transport.ingest_rpc", "transport.other_rpc"};
    const Kind kind = Classify(request);
    const bool writer_side = kind == kIngest || kind == kOther;
    const uint64_t parent =
        writer_side ? spans_->writer_span() : spans_->query_span();
    const uint64_t query = writer_side ? 0 : spans_->query_id();
    {
      std::lock_guard<std::mutex> lock(core_->mu);
      core_->totals[kind].calls += 1;
      core_->totals[kind].request_bytes += request.size();
    }
    const int64_t t0 = NowNs();
    inner_->Call(
        shard, replica, std::move(request),
        [core = core_, spans = spans_, kind, parent, query, t0,
         done = std::move(done)](Result<std::string> result) {
          const int64_t t1 = NowNs();
          {
            std::lock_guard<std::mutex> lock(core->mu);
            if (result.ok()) core->totals[kind].response_bytes += result->size();
            core->totals[kind].latency_us.push_back(
                static_cast<double>(t1 - t0) / 1e3);
          }
          spans->Add(kNames[kind], spans->NextId(), parent, query, t0, t1);
          done(std::move(result));
        },
        std::move(cancelled));
  }

  size_t num_shards() const override { return inner_->num_shards(); }
  size_t num_replicas() const override { return inner_->num_replicas(); }

  KindTotals totals(Kind kind) const {
    std::lock_guard<std::mutex> lock(core_->mu);
    return core_->totals[kind];
  }

 private:
  struct Core {
    std::mutex mu;
    KindTotals totals[kNumKinds];
  };

  static Kind Classify(const std::string& frame) {
    auto type = remote::PeekType(frame);
    if (!type.ok()) return kOther;
    switch (*type) {
      case remote::MessageType::kStatsRequest:
        return kStats;
      case remote::MessageType::kSearchRequest:
        return kSearch;
      case remote::MessageType::kIngestRequest:
        return kIngest;
      default:
        return kOther;
    }
  }

  remote::Transport* inner_;
  std::shared_ptr<Core> core_;
  SpanLog* spans_;
  std::atomic<bool> recording_{false};
};

}  // namespace e2e
}  // namespace deepsurf

#endif  // DEEPSURF_BENCH_E2E_PROBES_H_
