// Copyright 2026 The deepsurf Authors.
//
// One shard node of the distributed serving layer: a server owning one
// InvertedIndex, fed through a bounded request queue by its own worker
// threads. This is the unit the coordinator replicates — R ShardServers
// holding identical indexes form one shard's replica group — and the
// process boundary it models is deliberately narrow: requests and
// responses are opaque wire frames (remote/wire.h), never shared
// pointers, so moving a ShardServer behind a real socket changes the
// transport, not the server.
//
// Contracts:
//   * Search requests are answered under a shared lock, ingest under an
//     exclusive one, so queries stay serveable while batches land (the
//     same read-during-ingest promise ShardedIndex makes). A search
//     frame carries the corpus-wide BM25 statistics it scores with, so
//     one round trip answers a query.
//   * Ingest is idempotent by sequence number: batches apply exactly
//     once in order, and a re-sent seq (a retry whose response was lost)
//     replays the stored response without touching the index. Replicas
//     fed the same batch sequence therefore hold bit-identical indexes.
//   * Every applied batch's request frame is journaled in a write-ahead
//     ingest log (remote/ingest_log.h), and Fetch frames serve the
//     retained window to peers — how a stale replica streams the
//     batches it missed from a currency-holding one and rejoins.
//   * The queue is bounded: when it is full, Enqueue fails fast with
//     ResourceExhausted instead of buffering unboundedly — backpressure
//     the coordinator turns into retries elsewhere.
//   * A request whose cancel token is set by the time a worker picks it
//     up is answered Aborted without touching the index — how hedged
//     losers die cheaply.

#ifndef DEEPSURF_REMOTE_SHARD_SERVER_H_
#define DEEPSURF_REMOTE_SHARD_SERVER_H_

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <vector>

#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "remote/ingest_log.h"
#include "remote/wire.h"
#include "util/result.h"

namespace deepsurf {
namespace remote {

struct ShardServerOptions {
  /// Worker threads draining the request queue.
  size_t num_workers = 2;
  /// Requests held while all workers are busy; beyond this, Enqueue
  /// rejects with ResourceExhausted (backpressure, not buffering).
  size_t max_queue = 256;
  /// Scoring options for the local index. Must match the coordinator's
  /// (and every replica's) or results will differ between replicas.
  index::IndexOptions index;
  /// Retention of the write-ahead ingest log this server keeps of its
  /// applied batches (serves peer catch-up via Fetch frames).
  IngestLogOptions wal;
  /// Largest payload-byte budget one Fetch response will carry, however
  /// much the peer asked for (bounds response frames).
  size_t max_fetch_bytes = 4u << 20;
};

/// Cumulative counters of one server (all since construction). A thin
/// snapshot view over the server's own registry (metrics()) — the
/// registry is the source of truth, this struct is the stable API.
struct ShardServerStats {
  uint64_t served = 0;          ///< requests answered (errors included)
  uint64_t rejected = 0;        ///< bounced on a full queue
  uint64_t cancelled = 0;       ///< hedged losers skipped before execution
  uint64_t searches = 0;
  uint64_t ingest_batches = 0;  ///< batches applied (replays not counted)
  uint64_t ingest_replays = 0;  ///< idempotent re-sends answered from cache
  uint64_t fetches = 0;         ///< catch-up log reads served to peers
  uint64_t health_checks = 0;
  uint64_t decode_errors = 0;
  size_t queue_depth = 0;       ///< snapshot at stats() time
};

/// A shard node. Thread-safe; Enqueue may be called from any thread.
class ShardServer {
 public:
  /// Invoked exactly once per accepted request, from a worker thread
  /// (or inline from Enqueue on rejection/shutdown).
  using Callback = std::function<void(Result<std::string>)>;
  /// Set by the caller to abandon a request it no longer needs.
  using CancelToken = std::shared_ptr<std::atomic<bool>>;

  explicit ShardServer(ShardServerOptions options = {});
  ~ShardServer();

  ShardServer(const ShardServer&) = delete;
  ShardServer& operator=(const ShardServer&) = delete;

  /// Submits one wire frame. `done` receives the response frame, or the
  /// error (ResourceExhausted when the queue is full, Aborted when the
  /// request was cancelled or the server shut down first, InvalidArgument
  /// for a malformed frame).
  void Enqueue(std::string request, Callback done,
               CancelToken cancelled = nullptr);

  ShardServerStats stats() const;

  /// This server's own counters, all under the fixed "shard." prefix.
  /// No other instance writes to them; a cluster view is the caller's
  /// composition of one block per server.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Read-only view of the local index (tests and diagnostics). The
  /// usual read-during-ingest caveats of InvertedIndex apply; prefer
  /// health frames in production paths.
  const index::InvertedIndex& index() const { return index_; }

  /// Deterministic queue-pressure testing: while paused, workers leave
  /// requests queued (Enqueue still accepts/rejects normally).
  void PauseForTesting();
  void ResumeForTesting();

  /// Snapshot of the write-ahead log's durable image (tests: torn-tail
  /// recovery wants real bytes to corrupt).
  std::string WalImageForTesting() const;

 private:
  struct PendingRequest {
    std::string bytes;
    Callback done;
    CancelToken cancelled;
    /// When the request entered the queue — the queue-wait side of a
    /// traced query's queue-wait/scoring split.
    std::chrono::steady_clock::time_point enqueued;
  };

  void WorkerLoop();

  /// Dispatches one decoded frame. Takes the index lock it needs.
  /// `queue_us` is how long the request waited in the queue (traced
  /// search requests report it back in the response's timing tail).
  Result<std::string> Handle(const std::string& request, uint64_t queue_us);
  Result<std::string> HandleSearch(const std::string& request,
                                   uint64_t queue_us);
  Result<std::string> HandleIngest(const std::string& request);
  Result<std::string> HandleHealth(const std::string& request);
  Result<std::string> HandleFetch(const std::string& request);

  const ShardServerOptions options_;

  /// Search takes shared, ingest takes exclusive — queries stay
  /// serveable during ingest. Also guards the ingest seq state below.
  mutable std::shared_mutex index_mu_;
  index::InvertedIndex index_;
  uint64_t last_applied_seq_ = 0;
  uint64_t last_ingest_request_hash_ = 0;  ///< guards replay: a re-sent
                                           ///< seq must carry the same
                                           ///< batch bytes
  std::string last_ingest_response_;  ///< replayed for a re-sent seq
  IngestLog wal_;  ///< applied batches, served to catching-up peers

  mutable std::mutex mu_;  ///< queue + lifecycle
  std::condition_variable cv_;
  std::deque<PendingRequest> queue_;
  bool stop_ = false;
  bool paused_ = false;
  std::vector<std::thread> workers_;

  /// Registry-backed counters (ShardServerStats is their snapshot view).
  obs::MetricsRegistry metrics_;
  obs::Counter* c_served_;
  obs::Counter* c_rejected_;
  obs::Counter* c_cancelled_;
  obs::Counter* c_searches_;
  obs::Counter* c_ingest_batches_;
  obs::Counter* c_ingest_replays_;
  obs::Counter* c_fetches_;
  obs::Counter* c_health_checks_;
  obs::Counter* c_decode_errors_;
  obs::Gauge* g_queue_depth_;
  obs::LatencyHistogram* h_queue_wait_ms_;
};

}  // namespace remote
}  // namespace deepsurf

#endif  // DEEPSURF_REMOTE_SHARD_SERVER_H_
