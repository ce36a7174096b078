// Copyright 2026 The deepsurf Authors.
//
// The metrics registry: the serving stack's per-instance counters under
// one naming scheme and one exposition format. Every serving component
// (serve::Engine, remote::Coordinator, remote::ShardServer) owns one
// registry by value, so no two instances ever share a counter and every
// number a registry reports belongs to exactly one instance. The hot
// path stays lock-free:
//
//   * Counter — a monotone counter striped over cache-line-padded
//     relaxed atomics, so concurrent increments from many serving
//     threads never bounce one cache line. Reads sum the stripes.
//   * Gauge — a single signed atomic (set/add), for levels such as
//     queue depth or replicas currently dead.
//   * LatencyHistogram — fixed upper-bound buckets (milliseconds) with
//     relaxed atomic counts; Observe is one branchy scan plus one
//     fetch_add, cheap enough for per-query use.
//
// Registration (name -> object) takes a mutex — a slow path done once
// at component construction. Returned pointers are stable for the
// registry's lifetime.
//
// Snapshot/delta semantics follow PR 8's monotone-census rule: every
// counter and histogram bucket is cumulative and never regresses, so
// consecutive snapshots are monotone non-decreasing and a window's
// activity is plain subtraction (Delta saturates at zero anyway, so a
// misuse cannot wrap). The text exposition is deterministic: names are
// emitted in sorted order with fixed formatting, so two dumps of
// identical state are byte-identical — which is what lets tests
// golden-match them and CI diff them across runs. A caller that wants
// one pane over several instances concatenates their dumps, each under
// its own `# <instance>` header line.
//
// Naming convention (see README "Observability"): dot-separated
// lowercase paths, first segment = the owning layer's fixed prefix
// ("serve", "coord", "shard"); histograms end in "_ms".

#ifndef DEEPSURF_OBS_METRICS_H_
#define DEEPSURF_OBS_METRICS_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace deepsurf {
namespace obs {

/// Monotone counter, striped to keep concurrent increments cheap.
class Counter {
 public:
  Counter() = default;
  Counter(const Counter&) = delete;
  Counter& operator=(const Counter&) = delete;

  /// Relaxed add on this thread's stripe (never decrements).
  void Inc(uint64_t n = 1) {
    stripes_[StripeIndex()].v.fetch_add(n, std::memory_order_relaxed);
  }

  /// Sum of the stripes. Monotone across calls (each stripe only grows).
  uint64_t Value() const {
    uint64_t total = 0;
    for (const auto& s : stripes_) {
      total += s.v.load(std::memory_order_relaxed);
    }
    return total;
  }

 private:
  static constexpr size_t kStripes = 8;

  static size_t StripeIndex();

  struct alignas(64) Stripe {
    std::atomic<uint64_t> v{0};
  };
  Stripe stripes_[kStripes];
};

/// Signed level (queue depth, replicas dead, ...). Not monotone.
class Gauge {
 public:
  Gauge() = default;
  Gauge(const Gauge&) = delete;
  Gauge& operator=(const Gauge&) = delete;

  void Set(int64_t v) { v_.store(v, std::memory_order_relaxed); }
  void Add(int64_t d) { v_.fetch_add(d, std::memory_order_relaxed); }
  int64_t Value() const { return v_.load(std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> v_{0};
};

/// Fixed-bucket latency histogram: counts per upper bound (ms), plus an
/// overflow bucket, a total count, and a sum (for means). All updates
/// are relaxed atomics; buckets are cumulative and never regress.
class LatencyHistogram {
 public:
  /// `bounds` are strictly increasing upper bucket edges in
  /// milliseconds; a final +inf bucket is implicit.
  explicit LatencyHistogram(std::vector<double> bounds);
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  /// The default serving-latency edges: 0.01 ms .. 10 s, roughly x3 per
  /// step — wide enough for a cache hit and a chaos-phase straggler in
  /// the same histogram.
  static std::vector<double> DefaultBounds();

  /// Records one latency (milliseconds).
  void Observe(double ms);

  const std::vector<double>& bounds() const { return bounds_; }
  uint64_t bucket(size_t i) const {
    return counts_[i].load(std::memory_order_relaxed);
  }
  size_t num_buckets() const { return bounds_.size() + 1; }  ///< incl. +inf
  uint64_t total() const { return total_.load(std::memory_order_relaxed); }
  /// Sum of observed values (ms), tracked in integer microseconds.
  double sum_ms() const {
    return static_cast<double>(sum_us_.load(std::memory_order_relaxed)) /
           1000.0;
  }

 private:
  const std::vector<double> bounds_;
  std::unique_ptr<std::atomic<uint64_t>[]> counts_;  ///< bounds + inf
  std::atomic<uint64_t> total_{0};
  std::atomic<uint64_t> sum_us_{0};
};

/// One histogram's state inside a MetricsSnapshot.
struct HistogramSnapshot {
  std::vector<double> bounds;    ///< upper edges (ms); +inf implicit
  std::vector<uint64_t> counts;  ///< bounds.size() + 1 entries
  uint64_t total = 0;
  double sum_ms = 0.0;

  /// Linear-interpolated quantile estimate from the bucket counts,
  /// q in [0, 1]; 0 when empty. The +inf bucket reports its lower edge.
  double Quantile(double q) const;
};

/// A point-in-time copy of everything the registry knows. Counters and
/// histogram buckets are cumulative, so for two snapshots of the same
/// registry taken at t0 < t1, `later.Delta(earlier)` is exactly the
/// activity of the window — the monotone-census rule.
struct MetricsSnapshot {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, int64_t> gauges;
  std::map<std::string, HistogramSnapshot> histograms;

  /// this - earlier, field-wise, saturating at zero. Gauges are levels,
  /// not rates: the later value is kept as-is.
  MetricsSnapshot Delta(const MetricsSnapshot& earlier) const;
};

/// The registry. Thread-safe; returned pointers are stable for the
/// registry's lifetime. Re-requesting a name returns the same object.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  /// Empty `bounds` means LatencyHistogram::DefaultBounds(). Bounds are
  /// fixed by the first registration of a name.
  LatencyHistogram* histogram(const std::string& name,
                              std::vector<double> bounds = {});

  MetricsSnapshot Snapshot() const;

  /// Deterministic text exposition: one sorted `name value` line per
  /// counter/gauge, histograms as `name{le="..."} count` lines plus
  /// `name_total` / `name_sum_ms`. Identical state => identical bytes.
  std::string TextDump() const;

 private:
  mutable std::mutex mu_;  ///< registration + snapshots only
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
};

}  // namespace obs
}  // namespace deepsurf

#endif  // DEEPSURF_OBS_METRICS_H_
