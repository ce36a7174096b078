// Copyright 2026 The deepsurf Authors.
//
// Descriptive statistics and distribution utilities used by the
// experiment harnesses: moments, percentiles, entropy and Jensen-Shannon
// divergence (the db-selection detector compares result vocabularies
// with JSD), Gini coefficient (long-tail skew summary), and the
// sliding-window latency trackers the coordinator and the open-loop
// traffic harness keep.

#ifndef DEEPSURF_UTIL_STATS_H_
#define DEEPSURF_UTIL_STATS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace deepsurf {
namespace stats {

/// Arithmetic mean; 0 for an empty sample.
double Mean(const std::vector<double>& xs);

/// Sample standard deviation (n-1 denominator); 0 when n < 2.
double StdDev(const std::vector<double>& xs);

/// Linear-interpolated percentile, p in [0, 100]. 0 for an empty sample.
double Percentile(std::vector<double> xs, double p);

double Median(std::vector<double> xs);
double Min(const std::vector<double>& xs);
double Max(const std::vector<double>& xs);
double Sum(const std::vector<double>& xs);

/// Gini coefficient of a non-negative sample in [0, 1]; 0 = perfectly
/// equal, ->1 = maximally concentrated. Used to summarize how skewed the
/// per-form impact distribution is.
double Gini(std::vector<double> xs);

/// Shannon entropy (bits) of a discrete distribution given as counts.
double EntropyBits(const std::vector<double>& counts);

/// Jensen-Shannon divergence (bits, in [0, 1]) between two discrete
/// distributions given as count maps over string categories. Categories
/// absent from one side are treated as zero-count there.
double JensenShannonBits(const std::map<std::string, double>& a,
                         const std::map<std::string, double>& b);

/// Sliding-window quantile estimator over the most recent `window`
/// samples: a fixed-capacity ring buffer, so memory is bounded no matter
/// how long the process serves. Built for adaptive latency hedging (the
/// remote coordinator fires its backup request after the tracked p9x of
/// recent request latencies) and for latency reporting in the benches.
///
/// Quantile() is O(window) per call (selection over a copy) — fine for
/// per-request decisions at the window sizes used here (<= a few
/// thousand). Quantiles use the same linear-interpolation definition as
/// Percentile() above, so full-window trackers agree with the batch
/// helper exactly. Not internally synchronized; callers that share a
/// tracker across threads wrap it in their own lock.
class PercentileTracker {
 public:
  explicit PercentileTracker(size_t window = 1024);

  /// Records a sample, evicting the oldest once the window is full.
  void Add(double x);

  /// Quantile q in [0, 1] of the samples currently in the window
  /// (q = 0.95 is p95). 0 when no samples have been recorded.
  double Quantile(double q) const;

  /// Samples currently held (<= window capacity).
  size_t size() const { return size_; }
  /// Lifetime samples recorded (monotone; not windowed).
  uint64_t total() const { return total_; }

 private:
  std::vector<double> ring_;
  size_t next_ = 0;  ///< ring slot the next Add writes
  size_t size_ = 0;
  uint64_t total_ = 0;
};

/// The open-loop arrival clock: pins a load schedule's t = 0 to a wall
/// instant so worker threads can (a) sleep until an arrival's scheduled
/// offset and (b) measure completion against the *schedule*, not
/// against when a worker happened to pick the request up. That
/// difference is the whole point of open-loop measurement: when the
/// system falls behind, lateness accumulates into the latency numbers
/// instead of silently throttling the offered load the way a
/// closed-loop worker pool does.
class OpenLoopClock {
 public:
  /// t = 0 is the moment of construction.
  OpenLoopClock() : start_(std::chrono::steady_clock::now()) {}

  /// Seconds elapsed since t = 0.
  double Now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

  /// The wall instant of schedule offset `offset_s`.
  std::chrono::steady_clock::time_point AtOffset(double offset_s) const {
    return start_ + std::chrono::duration_cast<
                        std::chrono::steady_clock::duration>(
                        std::chrono::duration<double>(offset_s));
  }

  /// Blocks until schedule offset `offset_s`; returns immediately if it
  /// has already passed.
  void SleepUntil(double offset_s) const;

 private:
  std::chrono::steady_clock::time_point start_;
};

/// Thread-safe per-phase latency windows: one PercentileTracker per
/// schedule phase, all sized `window`. Sized to hold a whole phase, a
/// full window agrees with the batch Percentile() helper exactly (same
/// interpolation, nothing evicted); undersized, it degrades to the
/// sliding-window estimate. Built for the open-loop traffic harness,
/// where many serving workers record into whichever phase an arrival
/// was scheduled in.
class PhaseLatencies {
 public:
  PhaseLatencies(size_t num_phases, size_t window);

  /// Records a sample into `phase`'s window.
  void Add(size_t phase, double x);

  /// Quantile q in [0, 1] of `phase`'s window (0 when empty).
  double Quantile(size_t phase, double q) const;

 private:
  mutable std::mutex mu_;
  std::vector<PercentileTracker> trackers_;
};

}  // namespace stats
}  // namespace deepsurf

#endif  // DEEPSURF_UTIL_STATS_H_
