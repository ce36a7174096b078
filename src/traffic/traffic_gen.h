// Copyright 2026 The deepsurf Authors.
//
// Seed-deterministic load generation for the serving benches and the
// open-loop traffic harness (bench_traffic). Three pieces:
//
//   * The Zipf-repetitive query stream the serving benches share: a pool
//     of distinct queries drawn from querylog::QueryStream, replayed
//     with Zipf-distributed popularity. This is the exact generator the
//     serving benches once each carried inline — extracted so every
//     harness replays byte-identical streams (pinned by traffic_gen_test
//     against the legacy inline algorithm).
//
//   * Open-loop arrival schedules: Poisson arrivals at a target offered
//     QPS over a multi-phase schedule (steady states, linear diurnal
//     ramps, hot-key flash crowds via per-phase Zipf exponents). The
//     whole schedule is generated up front from one seed, so it is
//     byte-identical across runs and across however many worker threads
//     later serve it — closed-loop benches measure saturated throughput;
//     an open-loop schedule is what makes queueing collapse observable.
//
//   * Chaos schedules: timed kill / revive / slow-replica events against
//     a remote::FlakyTransport fabric (rolling replica outages that never
//     take out a whole shard group, plus slow-replica epochs on another
//     shard so hedging has a healthy peer to race). Pure data, generated
//     deterministically; the harness applies events at their offsets —
//     including during ingest-while-serving churn, where a kill makes
//     the replica miss replicated batches and forces a WAL catch-up on
//     revival (remote/ingest_log.h) before it can serve again.
//
// Plus RecordingWritableIndex, a WritableIndex decorator that logs every
// document that newly entered the index, in apply order — the replay log
// an exhaustive oracle needs to validate results served *during*
// ingest-while-serving churn (a query racing ingest must match the
// oracle over some corpus prefix within its observation window).

#ifndef DEEPSURF_TRAFFIC_TRAFFIC_GEN_H_
#define DEEPSURF_TRAFFIC_TRAFFIC_GEN_H_

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "index/search_index.h"
#include "synthweb/corpus.h"
#include "util/rng.h"

namespace deepsurf {
namespace traffic {

// --- The shared Zipf-repetitive query stream. ---

struct ZipfStreamOptions {
  /// Distinct queries in the pool (drawn from querylog::QueryStream).
  size_t distinct = 1500;
  /// Stream length: draws from the pool with Zipf(rank) popularity.
  size_t total = 4000;
  /// Rank-frequency exponent of the replay draws.
  double zipf_s = 1.0;
  /// Seed of the QueryStream that fills the pool.
  uint64_t pool_seed = 515;
  /// Seed of the popularity draws over the pool.
  uint64_t draw_seed = 717;
};

/// A materialized query stream: `queries[i] == pool[ranks[i]]`.
struct ZipfQueryStream {
  std::vector<std::string> pool;
  std::vector<size_t> ranks;
  std::vector<std::string> queries;
};

/// Builds the stream bench_remote replays: `distinct` pool
/// entries from QueryStream(pool_seed), then `total` draws of
/// ZipfSampler(distinct, zipf_s) on Rng(draw_seed). Byte-identical to
/// the legacy inline generator for the same options.
ZipfQueryStream BuildZipfQueryStream(const synthweb::WebCorpus& corpus,
                                     const ZipfStreamOptions& options);

// --- Open-loop arrival schedules. ---

/// One phase of an offered-load schedule.
struct PhaseSpec {
  std::string name;
  double duration_s = 1.0;
  /// Offered QPS, linearly interpolated from start to end across the
  /// phase (equal values = steady state; unequal = a diurnal ramp).
  double qps_start = 100.0;
  double qps_end = 100.0;
  /// Zipf exponent of the query-popularity draws during this phase. A
  /// spike (e.g. 1.0 -> 1.35) is a hot-key flash crowd: the head of the
  /// pool concentrates, hammering the result cache and decode caches.
  double zipf_s = 1.0;
  /// Marker for the harness: ingest-while-serving churn runs here.
  bool ingest_churn = false;
  /// Marker for the harness: the chaos window covers this phase. May be
  /// set together with ingest_churn — kills then overlap replicated
  /// ingest, and revived replicas catch up under live traffic.
  bool chaos = false;
};

/// One scheduled query arrival.
struct Arrival {
  double time_s = 0.0;  ///< offset from schedule start
  size_t phase = 0;     ///< index into the PhaseSpec vector
  size_t rank = 0;      ///< Zipf rank into the query pool
};

/// Seed-deterministic Poisson arrivals over `phases`: exponential
/// inter-arrival gaps at the phase's (linearly interpolated) offered
/// rate, each arrival drawing a pool rank with the phase's Zipf
/// exponent. Phase boundaries are exact — phase p's arrivals all lie in
/// [sum(duration[0..p)), sum(duration[0..p])) — and every phase consumes
/// a fixed number of RNG forks, so editing one phase never perturbs the
/// arrivals of the others. Arrival times are strictly increasing within
/// a phase.
std::vector<Arrival> GenerateArrivals(const std::vector<PhaseSpec>& phases,
                                      size_t pool_size, uint64_t seed);

// --- Chaos schedules. ---

struct ChaosEvent {
  enum class Kind : uint8_t {
    kKill,       ///< FlakyTransport::Kill(shard, replica)
    kRevive,     ///< FlakyTransport::Revive(shard, replica)
    kSlow,       ///< SetReplicaDelay(shard, replica, delay_ms)
    kClearSlow,  ///< SetReplicaDelay(shard, replica, 0)
  };
  double time_s = 0.0;  ///< offset from schedule start
  Kind kind = Kind::kKill;
  size_t shard = 0;
  size_t replica = 0;
  double delay_ms = 0.0;  ///< kSlow only
};

/// A rolling chaos schedule over a shards x replicas grid within
/// [start_s, end_s): the window is cut into `shards` slots; slot i kills
/// one (seed-chosen) replica of shard i at 10% of the slot and revives
/// it at 60%, and gives a replica of the *next* shard a slow epoch
/// (delay_ms extra latency) from 35% to 85% — so at most one replica of
/// any shard is ever down (failover keeps results byte-identical, no
/// partial results) and the slowed shard always has a healthy peer for
/// hedging to race. With replicas < 2 the kill/revive pairs are omitted
/// (killing the only replica would force partial results) and only the
/// slow epochs remain. Events are sorted by time; the whole schedule is
/// a pure function of its arguments.
std::vector<ChaosEvent> BuildRollingChaos(size_t shards, size_t replicas,
                                          double start_s, double end_s,
                                          double delay_ms, uint64_t seed);

// --- Ingest recording (oracle replay under churn). ---

/// WritableIndex decorator that records, in apply order, every document
/// that newly entered the inner index. Writers are serialized by the
/// recorder's mutex (held across the inner call), so the recorded order
/// equals the inner index's doc-id order: replaying recorded()[0..n)
/// into an empty-but-for-the-same-base oracle reproduces the exact
/// corpus prefix of size base + n. Reads forward to the inner index
/// unchanged. All writes to the inner index must go through the
/// recorder for the prefix guarantee to hold.
class RecordingWritableIndex : public index::WritableIndex {
 public:
  /// `inner` is borrowed and must outlive the recorder.
  explicit RecordingWritableIndex(index::WritableIndex* inner)
      : inner_(inner) {}

  Result<index::DocId> AddDocument(const std::string& url,
                                   const std::string& title,
                                   const std::string& body, bool is_deep_web,
                                   const std::string& source_host) override;
  Result<size_t> InsertBatch(const std::vector<index::Document>& docs,
                             std::vector<bool>* newly_added = nullptr) override;

  std::vector<index::SearchHit> Search(const std::string& query,
                                       size_t k) const override {
    return inner_->Search(query, k);
  }
  std::vector<index::SearchHit> SearchTerms(
      const std::vector<std::string>& terms, size_t k) const override {
    return inner_->SearchTerms(terms, k);
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

  /// Snapshot of the newly-entered documents, in doc-id order.
  std::vector<index::Document> recorded() const;
  size_t recorded_size() const;

 private:
  index::WritableIndex* inner_;
  mutable std::mutex mu_;
  std::vector<index::Document> recorded_;
};

}  // namespace traffic
}  // namespace deepsurf

#endif  // DEEPSURF_TRAFFIC_TRAFFIC_GEN_H_
