#include "util/stats.h"

#include <algorithm>
#include <cmath>
#include <thread>

#include "util/logging.h"

namespace deepsurf {
namespace stats {

double Mean(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc / static_cast<double>(xs.size());
}

double StdDev(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0.0;
  double m = Mean(xs);
  double acc = 0.0;
  for (double x : xs) acc += (x - m) * (x - m);
  return std::sqrt(acc / static_cast<double>(xs.size() - 1));
}

double Percentile(std::vector<double> xs, double p) {
  if (xs.empty()) return 0.0;
  DS_CHECK(p >= 0.0 && p <= 100.0) << "percentile out of range";
  std::sort(xs.begin(), xs.end());
  if (xs.size() == 1) return xs[0];
  double pos = (p / 100.0) * static_cast<double>(xs.size() - 1);
  size_t lo = static_cast<size_t>(pos);
  size_t hi = std::min(lo + 1, xs.size() - 1);
  double frac = pos - static_cast<double>(lo);
  return xs[lo] * (1.0 - frac) + xs[hi] * frac;
}

double Median(std::vector<double> xs) { return Percentile(std::move(xs), 50); }

double Min(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::min_element(xs.begin(), xs.end());
}

double Max(const std::vector<double>& xs) {
  if (xs.empty()) return 0.0;
  return *std::max_element(xs.begin(), xs.end());
}

double Sum(const std::vector<double>& xs) {
  double acc = 0.0;
  for (double x : xs) acc += x;
  return acc;
}

double Gini(std::vector<double> xs) {
  if (xs.size() < 2) return 0.0;
  std::sort(xs.begin(), xs.end());
  double total = Sum(xs);
  if (total <= 0.0) return 0.0;
  double weighted = 0.0;
  for (size_t i = 0; i < xs.size(); ++i) {
    weighted += static_cast<double>(i + 1) * xs[i];
  }
  double n = static_cast<double>(xs.size());
  return (2.0 * weighted) / (n * total) - (n + 1.0) / n;
}

double EntropyBits(const std::vector<double>& counts) {
  double total = Sum(counts);
  if (total <= 0.0) return 0.0;
  double h = 0.0;
  for (double c : counts) {
    if (c <= 0.0) continue;
    double p = c / total;
    h -= p * std::log2(p);
  }
  return h;
}

namespace {
double KlBits(const std::map<std::string, double>& p,
              const std::map<std::string, double>& m, double p_total,
              double m_total) {
  double kl = 0.0;
  for (const auto& [k, c] : p) {
    if (c <= 0.0) continue;
    double pp = c / p_total;
    auto it = m.find(k);
    double pm = (it == m.end() ? 0.0 : it->second) / m_total;
    if (pm > 0.0) kl += pp * std::log2(pp / pm);
  }
  return kl;
}
}  // namespace

double JensenShannonBits(const std::map<std::string, double>& a,
                         const std::map<std::string, double>& b) {
  double ta = 0.0;
  double tb = 0.0;
  for (const auto& [k, c] : a) ta += c;
  for (const auto& [k, c] : b) tb += c;
  if (ta <= 0.0 || tb <= 0.0) return 0.0;
  std::map<std::string, double> m;
  for (const auto& [k, c] : a) m[k] += (c / ta) * 0.5;
  for (const auto& [k, c] : b) m[k] += (c / tb) * 0.5;
  // Normalized copies feed KL against the mixture (mixture total is 1).
  std::map<std::string, double> an;
  std::map<std::string, double> bn;
  for (const auto& [k, c] : a) an[k] = c / ta;
  for (const auto& [k, c] : b) bn[k] = c / tb;
  return 0.5 * KlBits(an, m, 1.0, 1.0) + 0.5 * KlBits(bn, m, 1.0, 1.0);
}

PercentileTracker::PercentileTracker(size_t window) {
  DS_CHECK(window > 0) << "PercentileTracker needs a non-empty window";
  ring_.resize(window);
}

void PercentileTracker::Add(double x) {
  ring_[next_] = x;
  next_ = (next_ + 1) % ring_.size();
  if (size_ < ring_.size()) ++size_;
  ++total_;
}

double PercentileTracker::Quantile(double q) const {
  if (size_ == 0) return 0.0;
  DS_CHECK(q >= 0.0 && q <= 1.0) << "quantile out of range";
  std::vector<double> window(ring_.begin(),
                             ring_.begin() + static_cast<long>(size_));
  return Percentile(std::move(window), q * 100.0);
}

void OpenLoopClock::SleepUntil(double offset_s) const {
  std::this_thread::sleep_until(AtOffset(offset_s));
}

PhaseLatencies::PhaseLatencies(size_t num_phases, size_t window) {
  DS_CHECK(num_phases > 0) << "PhaseLatencies needs at least one phase";
  trackers_.reserve(num_phases);
  for (size_t i = 0; i < num_phases; ++i) trackers_.emplace_back(window);
}

void PhaseLatencies::Add(size_t phase, double x) {
  std::lock_guard<std::mutex> lock(mu_);
  DS_CHECK(phase < trackers_.size()) << "phase out of range";
  trackers_[phase].Add(x);
}

double PhaseLatencies::Quantile(size_t phase, double q) const {
  std::lock_guard<std::mutex> lock(mu_);
  DS_CHECK(phase < trackers_.size()) << "phase out of range";
  return trackers_[phase].Quantile(q);
}

}  // namespace stats
}  // namespace deepsurf
