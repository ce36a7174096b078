// Copyright 2026 The deepsurf Authors.
//
// Per-query distributed tracing and the slow-query log.
//
// One served query becomes one trace: a tree of spans covering the
// result-cache lookup, the coordinator's search round, every per-replica
// search RPC attempt (hedges and cancellations included), the shard
// server's queue wait and DAAT scoring (measured server-side, carried
// back in the response frame's optional timing tail), and the top-k
// merge. The design rules:
//
//   * Deterministic ids, zero RNG: a trace id is derived by hashing the
//     tracer's seed with a monotone query sequence number — tracing
//     never consumes a random stream, so enabling it cannot perturb any
//     seeded experiment (the byte-identity suites run with 1-in-1
//     sampling to prove it). Span ids are 1-based ordinals within their
//     trace, so parent links are unambiguous without global
//     coordination.
//   * Cheap when off, cheap when on: sample_every == 0 makes
//     StartTrace return nullptr and every instrumentation site is one
//     pointer test. When sampling is on, the sampling decision is made
//     at trace start; unsampled queries still collect spans locally
//     (vector appends under a per-query mutex) so the over-SLO rule can
//     still commit them, but never touch shared state until Finish.
//   * Commit rule: a trace is kept when it was sampled, or when its
//     total latency exceeded slo_ms (always-on for over-SLO queries).
//     Trace fields travel on the wire only for *sampled* traces, so a
//     shard server never produces timing for a trace that might be
//     discarded — committed trees are complete (no orphan spans), which
//     CI gates on.
//   * Bounded memory: committed traces live in a ring of whole traces
//     (oldest trace evicted first — never a partial tree), and the
//     slow-query log is its own bounded ring.
//
// The slow-query log records, per over-SLO query: the normalized query
// and k, total latency, per-layer timings (span durations summed by
// name), blocks decoded/skipped (from span tags), and hedge outcomes.

#ifndef DEEPSURF_OBS_TRACE_H_
#define DEEPSURF_OBS_TRACE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace deepsurf {
namespace obs {

/// Milliseconds since a fixed process-wide steady-clock epoch (the
/// first call). All spans in one process share this timeline, so spans
/// recorded by different components interleave correctly.
double ProcessEpochMs();

/// One node of a trace's span tree.
struct Span {
  uint64_t span_id = 0;    ///< 1-based ordinal within the trace
  uint64_t parent_id = 0;  ///< 0 = root
  std::string name;
  double start_ms = 0.0;     ///< ProcessEpochMs() at start
  double duration_ms = 0.0;  ///< 0 until ended
  /// Annotations in append order (deterministic dumps).
  std::vector<std::pair<std::string, std::string>> tags;
};

/// One committed trace: the span tree of one query.
struct Trace {
  uint64_t trace_id = 0;
  std::string name;   ///< root span name
  std::string query;  ///< normalized query, when the owner set it
  uint64_t k = 0;
  bool sampled = false;  ///< false = committed by the over-SLO rule
  std::vector<Span> spans;
};

/// True iff every span's parent_id is 0 or names a span present in the
/// trace — the "no orphan spans" property CI gates on.
bool TreeComplete(const Trace& trace);

/// One slow-query log entry (a query whose total exceeded slo_ms).
struct SlowQueryEntry {
  uint64_t trace_id = 0;
  std::string query;
  uint64_t k = 0;
  double total_ms = 0.0;
  /// Span durations summed by span name, sorted by name (root excluded).
  std::vector<std::pair<std::string, double>> layer_ms;
  uint64_t blocks_decoded = 0;  ///< summed from "blocks_decoded" tags
  uint64_t blocks_skipped = 0;  ///< summed from "blocks_skipped" tags
  uint64_t hedges = 0;          ///< spans tagged hedge=1
  uint64_t cancelled = 0;       ///< rpc spans whose outcome was cancelled
};

struct TracerOptions {
  /// 1-in-N sampling: 0 disables tracing entirely (StartTrace returns
  /// nullptr), 1 traces every query.
  uint64_t sample_every = 0;
  /// When > 0, a query slower than this is committed even if unsampled,
  /// and recorded in the slow-query log.
  double slo_ms = 0.0;
  /// Committed traces retained (whole trees; oldest evicted first).
  size_t max_traces = 256;
  /// Slow-query log entries retained.
  size_t slow_log_capacity = 64;
  /// Trace-id derivation seed (hashed with the query sequence number).
  uint64_t seed = 0x9e3779b97f4a7c15ULL;
};

class Tracer;

/// The spans of one in-flight query. Created by Tracer::StartTrace with
/// the root span already open; thread-safe (fan-out threads append
/// concurrently); committed by Finish.
class TraceContext {
 public:
  TraceContext(const TraceContext&) = delete;
  TraceContext& operator=(const TraceContext&) = delete;

  uint64_t trace_id() const { return trace_id_; }
  bool sampled() const { return sampled_; }
  static constexpr uint64_t kRootSpan = 1;

  /// Opens a child span (clock starts now); returns its id.
  uint64_t StartSpan(const std::string& name, uint64_t parent_id);
  /// Closes a span (duration = now - start). Unknown ids are ignored.
  void EndSpan(uint64_t span_id);
  /// Records a span with explicit timing (server-side measurements
  /// carried back in a response frame land here).
  uint64_t AddCompletedSpan(const std::string& name, uint64_t parent_id,
                            double start_ms, double duration_ms);
  void Tag(uint64_t span_id, const std::string& key, std::string value);
  void Tag(uint64_t span_id, const std::string& key, uint64_t value);

  /// Annotates the trace for the slow-query log.
  void SetQuery(std::string query, uint64_t k);

  /// Milliseconds since the root span started.
  double ElapsedMs() const;

  /// Ends the root span and hands the trace to the tracer (committed
  /// when sampled or over-SLO). Idempotent; called by the destructor if
  /// the owner forgot.
  void Finish();

  ~TraceContext();

 private:
  friend class Tracer;
  TraceContext(Tracer* tracer, uint64_t trace_id, bool sampled,
               const std::string& root_name);

  Tracer* const tracer_;
  const uint64_t trace_id_;
  const bool sampled_;
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  std::string query_;
  uint64_t k_ = 0;
  bool finished_ = false;
};

/// The per-process span sink: samples, buffers committed traces, and
/// feeds the slow-query log. Thread-safe.
class Tracer {
 public:
  explicit Tracer(TracerOptions options = {});

  bool enabled() const { return options_.sample_every != 0; }
  const TracerOptions& options() const { return options_; }

  /// Starts a trace whose root span is `root_name`. Returns nullptr
  /// when tracing is disabled — callers guard every span on that.
  std::shared_ptr<TraceContext> StartTrace(const std::string& root_name);

  /// Committed traces, oldest first (copies).
  std::vector<Trace> Traces() const;
  std::vector<SlowQueryEntry> SlowLog() const;

  /// Deterministic JSON of the committed traces:
  /// {"traces": [{"trace_id": "...", "spans": [...]}]}. Trace ids are
  /// emitted as decimal strings (u64 does not fit a JSON number).
  std::string SpansJson() const;
  /// Human-readable slow-query log, one block per entry.
  std::string SlowLogText() const;

  uint64_t traces_started() const {
    return seq_.load(std::memory_order_relaxed);
  }
  uint64_t traces_committed() const;
  uint64_t traces_evicted() const;

 private:
  friend class TraceContext;
  void Commit(uint64_t trace_id, bool sampled, const std::string& query,
              uint64_t k, std::vector<Span> spans);

  const TracerOptions options_;
  std::atomic<uint64_t> seq_{0};
  mutable std::mutex mu_;
  std::deque<Trace> traces_;
  std::deque<SlowQueryEntry> slow_log_;
  uint64_t committed_ = 0;
  uint64_t evicted_ = 0;
};

/// The process-global default tracer components fall back to when their
/// options carry no explicit tracer. Starts inert (sampling off); tests
/// and tools may install their own. Never returns nullptr.
Tracer* DefaultTracer();
/// Installs `tracer` as the default; nullptr restores the inert one.
/// The caller keeps ownership and must outlive all use.
void SetDefaultTracer(Tracer* tracer);

/// The calling thread's active trace (nullptr when none): how a trace
/// crosses the virtual SearchIndex::SearchTerms boundary without
/// changing its signature. serve::Engine installs it; the Coordinator
/// reads it on the calling thread and carries the pointer into its
/// fan-out lambdas explicitly (thread-locals do not follow jobs onto
/// pool threads).
TraceContext* CurrentTrace();

/// RAII installer for CurrentTrace (restores the previous value).
class ScopedTrace {
 public:
  explicit ScopedTrace(TraceContext* trace);
  ~ScopedTrace();
  ScopedTrace(const ScopedTrace&) = delete;
  ScopedTrace& operator=(const ScopedTrace&) = delete;

 private:
  TraceContext* prev_;
};

/// RAII span: ends at scope exit. Null-safe (no-op without a trace).
class ScopedSpan {
 public:
  ScopedSpan() = default;
  ScopedSpan(TraceContext* trace, const std::string& name,
             uint64_t parent_id)
      : trace_(trace),
        id_(trace ? trace->StartSpan(name, parent_id) : 0) {}
  ~ScopedSpan() {
    if (trace_ != nullptr) trace_->EndSpan(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return id_; }

 private:
  TraceContext* trace_ = nullptr;
  uint64_t id_ = 0;
};

}  // namespace obs
}  // namespace deepsurf

#endif  // DEEPSURF_OBS_TRACE_H_
