#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

#include "util/logging.h"

namespace deepsurf {
namespace obs {

namespace {

/// Fixed-format double rendering so exposition dumps are deterministic:
/// %.6g trims trailing noise while round-tripping every value the
/// histograms produce (bucket edges and microsecond-granular sums).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

}  // namespace

size_t Counter::StripeIndex() {
  // One stripe per thread, assigned round-robin at first use: cheaper
  // and better-distributed than hashing thread ids, and stable for the
  // thread's lifetime.
  static std::atomic<size_t> next{0};
  thread_local size_t idx = next.fetch_add(1, std::memory_order_relaxed);
  return idx % kStripes;
}

LatencyHistogram::LatencyHistogram(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      counts_(new std::atomic<uint64_t>[bounds_.size() + 1]) {
  for (size_t i = 1; i < bounds_.size(); ++i) {
    DS_CHECK(bounds_[i] > bounds_[i - 1])
        << "histogram bounds must be strictly increasing";
  }
  for (size_t i = 0; i <= bounds_.size(); ++i) {
    counts_[i].store(0, std::memory_order_relaxed);
  }
}

std::vector<double> LatencyHistogram::DefaultBounds() {
  return {0.01, 0.03, 0.1, 0.3, 1.0,   3.0,    10.0,
          30.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0};
}

void LatencyHistogram::Observe(double ms) {
  if (!(ms >= 0.0)) ms = 0.0;  // NaN/negative clamp into the first bucket
  size_t b = std::upper_bound(bounds_.begin(), bounds_.end(), ms) -
             bounds_.begin();
  counts_[b].fetch_add(1, std::memory_order_relaxed);
  total_.fetch_add(1, std::memory_order_relaxed);
  sum_us_.fetch_add(static_cast<uint64_t>(std::llround(ms * 1000.0)),
                    std::memory_order_relaxed);
}

double HistogramSnapshot::Quantile(double q) const {
  if (total == 0) return 0.0;
  q = std::min(1.0, std::max(0.0, q));
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * total));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (size_t i = 0; i < counts.size(); ++i) {
    seen += counts[i];
    if (seen >= rank) {
      double lo = i == 0 ? 0.0 : bounds[i - 1];
      if (i >= bounds.size()) return lo;  // +inf bucket: lower edge
      double hi = bounds[i];
      uint64_t in_bucket = counts[i];
      uint64_t into = rank - (seen - in_bucket);
      return lo + (hi - lo) * static_cast<double>(into) /
                      static_cast<double>(in_bucket);
    }
  }
  return bounds.empty() ? 0.0 : bounds.back();
}

MetricsSnapshot MetricsSnapshot::Delta(const MetricsSnapshot& earlier) const {
  MetricsSnapshot d;
  for (const auto& [name, v] : counters) {
    auto it = earlier.counters.find(name);
    uint64_t prev = it == earlier.counters.end() ? 0 : it->second;
    d.counters[name] = v >= prev ? v - prev : 0;
  }
  d.gauges = gauges;  // levels, not rates
  for (const auto& [name, h] : histograms) {
    auto it = earlier.histograms.find(name);
    if (it == earlier.histograms.end() || it->second.bounds != h.bounds) {
      d.histograms[name] = h;
      continue;
    }
    const HistogramSnapshot& prev = it->second;
    HistogramSnapshot dh;
    dh.bounds = h.bounds;
    dh.counts.resize(h.counts.size(), 0);
    for (size_t i = 0; i < h.counts.size(); ++i) {
      uint64_t p = i < prev.counts.size() ? prev.counts[i] : 0;
      dh.counts[i] = h.counts[i] >= p ? h.counts[i] - p : 0;
    }
    dh.total = h.total >= prev.total ? h.total - prev.total : 0;
    dh.sum_ms = h.sum_ms >= prev.sum_ms ? h.sum_ms - prev.sum_ms : 0.0;
    d.histograms[name] = std::move(dh);
  }
  return d;
}

Counter* MetricsRegistry::counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = counters_[name];
  if (!slot) slot = std::make_unique<Counter>();
  return slot.get();
}

Gauge* MetricsRegistry::gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = gauges_[name];
  if (!slot) slot = std::make_unique<Gauge>();
  return slot.get();
}

LatencyHistogram* MetricsRegistry::histogram(const std::string& name,
                                             std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    if (bounds.empty()) bounds = LatencyHistogram::DefaultBounds();
    slot = std::make_unique<LatencyHistogram>(std::move(bounds));
  }
  return slot.get();
}

MetricsSnapshot MetricsRegistry::Snapshot() const {
  MetricsSnapshot snap;
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& [name, c] : counters_) snap.counters[name] = c->Value();
  for (const auto& [name, g] : gauges_) snap.gauges[name] = g->Value();
  for (const auto& [name, h] : histograms_) {
    HistogramSnapshot hs;
    hs.bounds = h->bounds();
    hs.counts.reserve(h->num_buckets());
    for (size_t i = 0; i < h->num_buckets(); ++i) {
      hs.counts.push_back(h->bucket(i));
    }
    hs.total = h->total();
    hs.sum_ms = h->sum_ms();
    snap.histograms[name] = std::move(hs);
  }
  return snap;
}

std::string MetricsRegistry::TextDump() const {
  const MetricsSnapshot snap = Snapshot();
  std::string out;
  for (const auto& [name, v] : snap.counters) {
    out += name;
    out.push_back(' ');
    out += std::to_string(v);
    out.push_back('\n');
  }
  for (const auto& [name, v] : snap.gauges) {
    out += name;
    out.push_back(' ');
    out += std::to_string(v);
    out.push_back('\n');
  }
  for (const auto& [name, h] : snap.histograms) {
    for (size_t i = 0; i < h.counts.size(); ++i) {
      out += name;
      out += "{le=\"";
      out += i < h.bounds.size() ? FormatDouble(h.bounds[i]) : "+inf";
      out += "\"} ";
      out += std::to_string(h.counts[i]);
      out.push_back('\n');
    }
    out += name + "_total " + std::to_string(h.total) + "\n";
    out += name + "_sum_ms " + FormatDouble(h.sum_ms) + "\n";
  }
  return out;
}

}  // namespace obs
}  // namespace deepsurf
