// Copyright 2026 The deepsurf Authors.
//
// The query/ingest coordinator of the distributed serving layer: the
// single front door that makes a shards x replicas grid of ShardServers
// look like one WritableIndex. This is the ROADMAP's "RPC-shaped
// boundary" — serving scales past one machine's cores — under the
// repo's signature constraint: distribution must not change a single
// result bit. For the same documents in the same insertion order, the
// coordinator's ranked hits are byte-identical (IEEE-754 score bits and
// tie-break order) to the in-process ShardedIndex and to one big
// InvertedIndex, at every shard and replica count, faults or no faults.
//
// How the exactness survives distribution:
//   * A query is one fan-out round under one reader lock. The
//     coordinator keeps the corpus-wide BM25 statistics itself —
//     document count, content-token total, per-term document frequency
//     — counting each document as ingest commits it, with the same
//     tokenizer the shards run. Every search frame carries them, so
//     every shard scores its top-k with *global* statistics. The round
//     sees one consistent corpus snapshot because ingest takes the
//     writer side of the lock.
//   * Global doc ids are assigned by the coordinator in insertion
//     order — exactly the ids a single index would assign — and
//     per-shard hits are merged by the shared MergeTopK total order.
//   * Replicas of a shard hold bit-identical indexes (same batches,
//     same order, sequence-numbered idempotent ingest), so *which*
//     replica answers is unobservable in the results. That freedom is
//     what failover, load-balancing rotation, and hedging spend.
//
// Tail-latency machinery (the paper's serving story is "heavy traffic
// from millions of users", where p99 is the product):
//   * Hedged requests: if a replica hasn't answered within an adaptive
//     delay (a tracked percentile of recent RPC latencies — see
//     stats::PercentileTracker), the same request is fired at the next
//     replica and the first answer wins; the loser is cancelled.
//   * Failover + retry: fast failures rotate to the next replica
//     immediately; silent drops are caught by a per-attempt deadline.
//     Replicas that keep failing are marked dead and skipped; a replica
//     whose acked seq lags its shard's head is stale and never serves
//     (consistency over capacity) — but neither verdict is forever,
//     because catch-up (below) can restore both liveness and currency.
//   * Partial results: a query never fails outright. If every replica
//     of a shard is unreachable after the attempt budget, the query is
//     answered from the shards that did respond and
//     stats().partial_results counts the degradation. A degraded answer
//     still scores with full-corpus statistics (an unreachable shard's
//     documents stay in the counts), so it equals the healthy ranking
//     restricted to the reachable shards' documents, first k: every
//     surviving hit keeps its healthy score bits and relative order.
//
// Ingest is durable and exactly-once: the coordinator stages every
// batch in a per-shard write-ahead log (remote/ingest_log.h) and
// commits its global-id state *before* dispatching to replicas — it
// can do so because ingest acks are fully deterministic (local ids,
// newly flags, and token lengths are all computable coordinator-side),
// so no ack can change the outcome, only confirm it. Replicas that
// miss the batch become stale stragglers, healed by the background
// catch-up worker: it replays the missed batches from that log through
// the replica's idempotent seq path, and re-admits the replica to
// serving once its acked seq matches the shard head — at which point
// it is byte-identical to replicas that never failed. The log is the
// only replay source (shard servers keep no journal), and it holds only
// what some replica still lacks: each ingest trims a shard's log
// through the lowest ack among its non-poisoned replicas. Ingest holds
// the writer lock end to end, so it serializes with queries exactly
// like ShardedIndex's writer does.

#ifndef DEEPSURF_REMOTE_COORDINATOR_H_
#define DEEPSURF_REMOTE_COORDINATOR_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"
#include "index/search_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "remote/ingest_log.h"
#include "remote/transport.h"
#include "remote/wire.h"
#include "util/result.h"
#include "util/stats.h"

namespace deepsurf {
namespace remote {

struct CoordinatorOptions {
  /// Fire a backup request at the next replica when the primary has not
  /// answered within the adaptive hedge delay. Needs num_replicas > 1.
  bool hedging = true;
  /// The hedge fires at a high quantile of recent RPC latencies, capped
  /// at this delay.
  double hedge_max_ms = 20.0;
  /// Per-attempt deadline: a replica that has neither answered nor
  /// failed by then is presumed lost (dropped request) and the call
  /// rotates onward.
  double call_timeout_ms = 200.0;
  /// Total RPC attempts per logical shard call, hedges included.
  size_t max_attempts = 6;
  /// Attempts per replica for one ingest batch (ingest must reach every
  /// replica individually, so it retries harder before declaring death).
  size_t ingest_max_attempts = 8;
  /// Fan-out worker threads (0 = min(4 * shards, 32)). Shard calls of
  /// one query run on these; the calling thread always takes shard 0, so
  /// a small pool degrades throughput, never progress.
  size_t fanout_threads = 0;
  /// RPC attempts per replayed batch / per catch-up probe.
  size_t catchup_attempts = 3;
  /// Tracer coordinator-owned traces are sampled into (obs/trace.h);
  /// nullptr = the process-global obs::DefaultTracer(). A query that
  /// already carries a trace (serve::Engine installed it as the
  /// thread's obs::CurrentTrace) is annotated into THAT trace; this
  /// tracer only starts fresh traces for queries entering through the
  /// coordinator directly.
  obs::Tracer* tracer = nullptr;
};

/// Cumulative counters of one coordinator (all since construction). A
/// thin snapshot view over the coordinator's own registry (metrics()) —
/// the registry is the source of truth, this struct is the stable API.
struct CoordinatorStats {
  uint64_t searches = 0;
  uint64_t ingest_batches = 0;    ///< replicated batches sent (per shard)
  uint64_t rpcs = 0;              ///< attempts issued, all kinds
  uint64_t hedges = 0;            ///< backup requests fired
  uint64_t hedge_wins = 0;        ///< calls won by a non-primary attempt
  uint64_t failovers = 0;         ///< rotations after a fast failure
  uint64_t timeouts = 0;          ///< per-attempt deadlines that expired
  uint64_t failed_shard_calls = 0;  ///< logical calls that lost every attempt
  uint64_t partial_results = 0;   ///< queries answered with >= 1 shard missing
  uint64_t replicas_dead = 0;     ///< replicas currently marked dead
  uint64_t ingest_stragglers = 0;  ///< per-replica batch sends that never
                                   ///< acked (each handed to catch-up)
  uint64_t replicas_rejoined = 0;  ///< stale replicas made current by catch-up
  uint64_t batches_replayed = 0;   ///< batches re-applied during catch-up
  uint64_t catchup_bytes = 0;      ///< payload bytes replayed during catch-up
  /// Payload bytes held in the per-shard ingest logs: the batches some
  /// non-poisoned replica has not acked (0 when every replica is current
  /// as of the last ingest). A level, refreshed by each ingest.
  uint64_t wal_bytes = 0;
  /// Latency snapshot of recent successful shard RPCs (milliseconds).
  double rpc_p50_ms = 0.0;
  double rpc_p95_ms = 0.0;
  double rpc_p99_ms = 0.0;
};

/// One replica's health as probed by ProbeHealth().
struct ReplicaProbe {
  size_t shard = 0;
  size_t replica = 0;
  bool reachable = false;
  bool marked_dead = false;  ///< coordinator-side verdict
  /// Recovery observability, from the coordinator's own bookkeeping
  /// (valid even when the replica is unreachable): how far the replica
  /// has acked vs. where its shard's history stands, and whether the
  /// catch-up worker currently owns it. Current ⇔ last_acked_seq ==
  /// shard_head_seq; anything less is stale and barred from serving.
  uint64_t last_acked_seq = 0;
  uint64_t shard_head_seq = 0;
  bool catching_up = false;
  HealthResponse health;  ///< valid when reachable
};

/// The distributed index: WritableIndex over a Transport.
class Coordinator : public index::WritableIndex {
 public:
  /// `transport` is borrowed and must outlive the coordinator. The
  /// servers behind it must score with the same IndexOptions the
  /// equivalence baseline uses.
  explicit Coordinator(Transport* transport, CoordinatorOptions options = {});
  ~Coordinator() override;

  Coordinator(const Coordinator&) = delete;
  Coordinator& operator=(const Coordinator&) = delete;

  // --- WritableIndex. ---
  Result<index::DocId> AddDocument(const std::string& url,
                                   const std::string& title,
                                   const std::string& body, bool is_deep_web,
                                   const std::string& source_host) override;
  Result<size_t> InsertBatch(const std::vector<index::Document>& docs,
                             std::vector<bool>* newly_added =
                                 nullptr) override;  // same default as base

  std::vector<index::SearchHit> Search(const std::string& query,
                                       size_t k) const override;
  std::vector<index::SearchHit> SearchTerms(
      const std::vector<std::string>& terms, size_t k) const override;

  /// Global-id metadata from the coordinator's local mirror (maintained
  /// at ingest) — no RPC. Value snapshot, safe under concurrent ingest.
  index::DocInfo doc(index::DocId id) const override;
  /// Mirror reference; deque storage never relocates, so it stays valid
  /// across concurrent and later ingest.
  const index::DocInfo& doc_ref(index::DocId id) const override;

  size_t num_docs() const override;
  uint64_t ingest_epoch() const override;

  size_t num_shards() const { return num_shards_; }
  size_t num_replicas() const { return num_replicas_; }

  /// Which shard a URL routes to (same hash ShardedIndex uses).
  size_t ShardForUrl(const std::string& url) const;

  CoordinatorStats stats() const;

  /// This coordinator's own counters, all under the fixed "coord."
  /// prefix. No other instance writes to them.
  const obs::MetricsRegistry& metrics() const { return metrics_; }

  /// Best-effort health sweep over every replica (one short-deadline
  /// probe each; dead-marked replicas are probed too, but not revived).
  std::vector<ReplicaProbe> ProbeHealth() const;

  // --- Replica catch-up & rejoin. ---

  /// Hands a replica to the background catch-up worker, which replays
  /// the batches it missed from the coordinator's per-shard ingest log
  /// and re-admits it to serving once its acked seq matches the shard
  /// head. Idempotent and cheap when the replica is already current.
  /// Wire FlakyTransport::SetReviveListener here so every revival
  /// rejoins through this path.
  void RequestCatchUp(size_t shard, size_t replica);

  /// Enqueues every currently-stale replica (a sweep for "heal whatever
  /// the last fault window left behind").
  void RequestCatchUpAll();

  /// Blocks until the catch-up queue is drained and no catch-up is in
  /// flight. timeout_ms == 0 waits indefinitely. Returns false on
  /// timeout. Note "drained" is not "healed": a replica whose catch-up
  /// failed (unreachable, or diverged) stays stale — ProbeHealth tells
  /// them apart.
  bool WaitForCatchUp(double timeout_ms = 0.0) const;

  /// Memory accounting of the cluster's logical corpus: one health
  /// probe per shard (any serving replica — replicas hold bit-identical
  /// indexes, so which one answers is unobservable), summed, plus the
  /// coordinator's own term -> df map in dictionary_bytes. A shard
  /// whose probe fails contributes zero; best-effort, like ProbeHealth.
  index::IndexMemoryUsage MemoryUsage() const override;

  /// Cluster query-execution counters: one light health probe per
  /// *replica* (no memory walk), merged into a per-replica snapshot
  /// cache and summed over the whole grid. These counters are
  /// per-replica work (a hedged or failed-over query decodes blocks on
  /// whichever replica served it), so the grid-wide sum is the exact
  /// census of cluster activity — and because each replica's cached
  /// snapshot only ever advances (its server counters are cumulative)
  /// and survives failed probes, consecutive calls are monotone
  /// non-decreasing: deltas between them never wrap.
  index::SearchStats search_stats() const override;

 private:
  struct CallState;
  class WriterLock;

  /// One logical call to a shard with load-balanced replica choice,
  /// hedging, failover, and per-attempt deadlines. Returns the winning
  /// response frame or the final error. `pinned_replica` >= 0 restricts
  /// the call to that replica (replicated ingest; no hedging). When
  /// `trace` is non-null, every attempt becomes a completed "coord.rpc"
  /// span under `parent_span` (hedges, cancellations, and failures
  /// included), and `*winner_span` (if non-null) receives the winning
  /// attempt's span id — the parent the caller hangs server-side
  /// timings under.
  Result<std::string> CallShard(size_t shard, const std::string& request,
                                int pinned_replica, size_t max_attempts,
                                bool hedging_allowed,
                                obs::TraceContext* trace = nullptr,
                                uint64_t parent_span = 0,
                                uint64_t* winner_span = nullptr) const;

  /// Replica try order for a shard: healthy replicas rotated for load
  /// balance, dead ones appended as a last resort, the whole cycle
  /// repeated up to `attempts` entries.
  std::vector<size_t> ReplicaPlan(size_t shard, size_t attempts) const;

  double HedgeDelayMs() const;

  /// Runs fn(shard) for every shard; shard 0 on the calling thread, the
  /// rest on the fan-out pool.
  void RunPerShard(const std::function<void(size_t)>& fn) const;
  /// Runs each job on the pool (calling thread helps with the first).
  void RunJobs(std::vector<std::function<void()>> jobs) const;
  void PoolWorkerLoop();

  /// The shared ingest path; requires mu_ held exclusively. Fills
  /// per-position global ids (and newly flags when non-null).
  Result<size_t> IngestLocked(const std::vector<index::Document>& docs,
                              std::vector<bool>* newly_added,
                              std::vector<index::DocId>* ids);

  // --- Catch-up worker internals. ---
  void CatchUpLoop();
  /// Drives one replica from wherever it is to the shard head. Returns
  /// true when the replica ends current (possibly having been so all
  /// along); false when it could not be healed this round (unreachable
  /// or diverged).
  bool CatchUpOne(size_t shard, size_t replica);
  /// Probes one replica (pinned) for its true last applied seq.
  Result<uint64_t> ProbeAppliedSeq(size_t shard, size_t replica) const;

  Transport* const transport_;
  const CoordinatorOptions options_;
  const size_t num_shards_;
  const size_t num_replicas_;

  /// Guards the global-id state, the doc mirror, and the corpus
  /// statistics. Readers are queries (held across the fan-out round:
  /// one corpus snapshot per query); the writer is ingest. Queries hold
  /// the reader side for whole RPC rounds — milliseconds — so with a
  /// reader-preferring shared_mutex a
  /// steady query stream would starve ingest forever. The write gate
  /// below restores writer preference: writers announce themselves, and
  /// new queries wait at the gate until no writer is pending.
  mutable std::shared_mutex mu_;
  mutable std::mutex write_gate_mu_;
  mutable std::condition_variable write_gate_cv_;
  mutable size_t writers_pending_ = 0;
  std::deque<index::DocInfo> docs_;  ///< global id -> mirror metadata
  std::vector<std::vector<index::DocId>> local_to_global_;  ///< per shard
  std::vector<uint64_t> shard_doc_count_;  ///< local ids handed out
  std::vector<uint64_t> shard_seq_;        ///< ingest batch sequence
  std::unordered_map<uint64_t, index::DocId> by_hash_;  ///< global dedup
  /// Corpus-wide BM25 statistics, counted as ingest commits documents;
  /// every search frame carries them (the document count is
  /// docs_.size()). A term's df is the number of committed documents
  /// whose body or title holds it — InvertedIndex::DocFrequency's
  /// posting count. `stamp` is 1 + the global id last counted, so a
  /// term repeated within one document counts once.
  struct TermDf {
    uint32_t df = 0;
    uint32_t stamp = 0;
  };
  std::unordered_map<std::string, TermDf> term_df_;
  uint64_t total_length_ = 0;  ///< content tokens across the corpus
  /// Per-shard write-ahead log of staged batches that some non-poisoned
  /// replica has not acked: the one source catch-up replays from.
  std::vector<IngestLog> wal_;

  /// Replica health, latency tracking, and counters. Separate from mu_
  /// so completions never contend with the corpus lock.
  mutable std::mutex telemetry_mu_;
  struct ReplicaHealth {
    uint64_t consecutive_failures = 0;
    /// Last ingest batch seq this replica acknowledged (directly, or by
    /// completing catch-up). A replica whose ack lags its shard's head
    /// missed a batch, holds a smaller corpus, and must not serve a
    /// query (byte-identity would break) until catch-up replays what it
    /// missed and proves it current again.
    uint64_t last_acked_seq = 0;
    /// Owned by the catch-up worker right now (observability only; the
    /// serving gate is last_acked_seq).
    bool catching_up = false;
    /// The replica acked a batch with contents that contradict the
    /// deterministic expectation (or refused a verbatim replay as
    /// conflicting): its index diverged from the committed history and
    /// no replay can fix it. Permanently excluded from serving and
    /// catch-up — the one verdict that is forever.
    bool poisoned = false;
    bool dead = false;  ///< operational verdict (failures); revivable
  };
  mutable std::vector<ReplicaHealth> health_;  ///< shard * R + replica
  /// Telemetry-side copy of shard_seq_ (updated in the same critical
  /// section as ack bookkeeping) so ReplicaPlan and the catch-up worker
  /// can read the shard head without touching the corpus lock.
  mutable std::vector<uint64_t> shard_head_;
  /// Last known per-replica search counters (cumulative server-side;
  /// merged by field-wise max so a stale probe can never regress one).
  mutable std::vector<index::SearchStats> replica_search_stats_;
  mutable stats::PercentileTracker latency_ms_;
  mutable double hedge_delay_cache_ms_ = 0.0;
  mutable uint64_t hedge_delay_refresh_at_ = 0;  ///< next total() to recompute at
  /// Per-shard primary-replica rotation. One counter per shard: a
  /// shared one hands a query's shard calls consecutive values, which
  /// pins each shard to one replica whenever the shard count is a
  /// multiple of the replica count.
  mutable std::vector<uint64_t> rotation_;

  /// Registry-backed counters (CoordinatorStats is their snapshot view).
  obs::MetricsRegistry metrics_;
  obs::Tracer* tracer_;
  obs::Counter* c_searches_;
  obs::Counter* c_ingest_batches_;
  obs::Counter* c_rpcs_;
  obs::Counter* c_hedges_;
  obs::Counter* c_hedge_wins_;
  obs::Counter* c_failovers_;
  obs::Counter* c_timeouts_;
  obs::Counter* c_failed_shard_calls_;
  obs::Counter* c_partial_results_;
  obs::Counter* c_ingest_stragglers_;
  obs::Counter* c_replicas_rejoined_;
  obs::Counter* c_batches_replayed_;
  obs::Counter* c_catchup_bytes_;
  obs::Gauge* g_replicas_dead_;  ///< a level, not a census: goes both ways
  obs::Gauge* g_wal_bytes_;      ///< CoordinatorStats::wal_bytes
  obs::LatencyHistogram* h_rpc_ms_;  ///< winning search-RPC latencies

  // Catch-up worker: one background thread draining (shard, replica)
  // tasks. Tasks arrive from ingest stragglers, transport revivals
  // (via RequestCatchUp), and explicit sweeps.
  mutable std::mutex catchup_mu_;
  mutable std::condition_variable catchup_cv_;
  mutable std::deque<std::pair<size_t, size_t>> catchup_queue_;
  mutable size_t catchup_inflight_ = 0;
  bool catchup_stop_ = false;
  std::thread catchup_worker_;

  // Fan-out pool (see CoordinatorOptions::fanout_threads).
  mutable std::mutex pool_mu_;
  mutable std::condition_variable pool_cv_;
  mutable std::deque<std::function<void()>> pool_jobs_;
  bool pool_stop_ = false;
  std::vector<std::thread> pool_workers_;
};

}  // namespace remote
}  // namespace deepsurf

#endif  // DEEPSURF_REMOTE_COORDINATOR_H_
