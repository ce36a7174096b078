#include "obs/trace.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <unordered_set>

#include "util/hash.h"

namespace deepsurf {
namespace obs {

namespace {

/// Slow-query log entries retained (oldest evicted first).
constexpr size_t kSlowLogCapacity = 64;

std::string FormatMs(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

void AppendJsonString(std::string* out, const std::string& s) {
  out->push_back('"');
  for (char c : s) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          *out += buf;
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

thread_local TraceContext* t_current_trace = nullptr;

}  // namespace

double ProcessEpochMs() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

bool TreeComplete(const Trace& trace) {
  std::unordered_set<uint64_t> ids;
  ids.reserve(trace.spans.size());
  for (const auto& s : trace.spans) ids.insert(s.span_id);
  for (const auto& s : trace.spans) {
    if (s.parent_id != 0 && ids.count(s.parent_id) == 0) return false;
  }
  return true;
}

// --- TraceContext. ---

TraceContext::TraceContext(Tracer* tracer, uint64_t trace_id, bool sampled,
                           const std::string& root_name)
    : tracer_(tracer), trace_id_(trace_id), sampled_(sampled) {
  Span root;
  root.span_id = kRootSpan;
  root.parent_id = 0;
  root.name = root_name;
  root.start_ms = ProcessEpochMs();
  spans_.push_back(std::move(root));
}

TraceContext::~TraceContext() { Finish(); }

uint64_t TraceContext::StartSpan(const std::string& name,
                                 uint64_t parent_id) {
  double now = ProcessEpochMs();
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.span_id = spans_.size() + 1;
  s.parent_id = parent_id;
  s.name = name;
  s.start_ms = now;
  spans_.push_back(std::move(s));
  return spans_.back().span_id;
}

void TraceContext::EndSpan(uint64_t span_id) {
  double now = ProcessEpochMs();
  std::lock_guard<std::mutex> lock(mu_);
  if (span_id == 0 || span_id > spans_.size()) return;
  Span& s = spans_[span_id - 1];
  s.duration_ms = now - s.start_ms;
}

uint64_t TraceContext::AddCompletedSpan(const std::string& name,
                                        uint64_t parent_id, double start_ms,
                                        double duration_ms) {
  std::lock_guard<std::mutex> lock(mu_);
  Span s;
  s.span_id = spans_.size() + 1;
  s.parent_id = parent_id;
  s.name = name;
  s.start_ms = start_ms;
  s.duration_ms = duration_ms;
  spans_.push_back(std::move(s));
  return spans_.back().span_id;
}

void TraceContext::Tag(uint64_t span_id, const std::string& key,
                       std::string value) {
  std::lock_guard<std::mutex> lock(mu_);
  if (span_id == 0 || span_id > spans_.size()) return;
  spans_[span_id - 1].tags.emplace_back(key, std::move(value));
}

void TraceContext::Tag(uint64_t span_id, const std::string& key,
                       uint64_t value) {
  Tag(span_id, key, std::to_string(value));
}

void TraceContext::SetQuery(std::string query, uint64_t k) {
  std::lock_guard<std::mutex> lock(mu_);
  query_ = std::move(query);
  k_ = k;
}

double TraceContext::ElapsedMs() const {
  double now = ProcessEpochMs();
  std::lock_guard<std::mutex> lock(mu_);
  return now - spans_.front().start_ms;
}

void TraceContext::Finish() {
  std::vector<Span> spans;
  std::string query;
  uint64_t k;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (finished_) return;
    finished_ = true;
    Span& root = spans_.front();
    root.duration_ms = ProcessEpochMs() - root.start_ms;
    spans = std::move(spans_);
    query = std::move(query_);
    k = k_;
  }
  tracer_->Commit(trace_id_, sampled_, query, k, std::move(spans));
}

// --- Tracer. ---

Tracer::Tracer(TracerOptions options) : options_(options) {}

std::shared_ptr<TraceContext> Tracer::StartTrace(
    const std::string& root_name) {
  if (options_.sample_every == 0) return nullptr;
  uint64_t seq = seq_.fetch_add(1, std::memory_order_relaxed);
  bool sampled = seq % options_.sample_every == 0;
  // Hash the seed with the sequence number: deterministic (no RNG
  // consumed), and distinct seeds keep concurrent tracers' ids apart.
  uint64_t bytes[2] = {options_.seed, seq};
  uint64_t trace_id =
      Fnv1a64(std::string_view(reinterpret_cast<const char*>(bytes),
                               sizeof(bytes)));
  if (trace_id == 0) trace_id = 1;  // 0 means "untraced" on the wire
  return std::shared_ptr<TraceContext>(
      new TraceContext(this, trace_id, sampled, root_name));
}

void Tracer::Commit(uint64_t trace_id, bool sampled, const std::string& query,
                    uint64_t k, std::vector<Span> spans) {
  double total_ms = spans.empty() ? 0.0 : spans.front().duration_ms;
  bool over_slo = options_.slo_ms > 0.0 && total_ms > options_.slo_ms;
  if (!sampled && !over_slo) return;

  SlowQueryEntry slow;
  if (over_slo) {
    slow.trace_id = trace_id;
    slow.query = query;
    slow.k = k;
    slow.total_ms = total_ms;
    std::map<std::string, double> layers;
    for (size_t i = 1; i < spans.size(); ++i) {
      const Span& s = spans[i];
      layers[s.name] += s.duration_ms;
      bool was_cancelled = false;
      for (const auto& [key, value] : s.tags) {
        if (key == "blocks_decoded") {
          slow.blocks_decoded += std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "blocks_skipped") {
          slow.blocks_skipped += std::strtoull(value.c_str(), nullptr, 10);
        } else if (key == "hedge" && value == "1") {
          ++slow.hedges;
        } else if (key == "outcome" && value == "cancelled") {
          was_cancelled = true;
        }
      }
      if (was_cancelled) ++slow.cancelled;
    }
    slow.layer_ms.assign(layers.begin(), layers.end());
  }

  std::lock_guard<std::mutex> lock(mu_);
  Trace t;
  t.trace_id = trace_id;
  t.name = spans.empty() ? std::string() : spans.front().name;
  t.query = query;
  t.k = k;
  t.sampled = sampled;
  t.spans = std::move(spans);
  traces_.push_back(std::move(t));
  ++committed_;
  while (traces_.size() > options_.max_traces) {
    traces_.pop_front();  // whole trees only — never a partial trace
    ++evicted_;
  }
  if (over_slo) {
    slow_log_.push_back(std::move(slow));
    while (slow_log_.size() > kSlowLogCapacity) {
      slow_log_.pop_front();
    }
  }
}

std::vector<Trace> Tracer::Traces() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<Trace>(traces_.begin(), traces_.end());
}

std::vector<SlowQueryEntry> Tracer::SlowLog() const {
  std::lock_guard<std::mutex> lock(mu_);
  return std::vector<SlowQueryEntry>(slow_log_.begin(), slow_log_.end());
}

uint64_t Tracer::traces_committed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return committed_;
}

uint64_t Tracer::traces_evicted() const {
  std::lock_guard<std::mutex> lock(mu_);
  return evicted_;
}

std::string Tracer::SpansJson() const {
  std::vector<Trace> traces = Traces();
  std::string out = "{\n  \"traces\": [";
  bool first_trace = true;
  for (const auto& t : traces) {
    out += first_trace ? "\n    " : ",\n    ";
    first_trace = false;
    out += "{\"trace_id\": \"" + std::to_string(t.trace_id) + "\", \"name\": ";
    AppendJsonString(&out, t.name);
    out += ", \"query\": ";
    AppendJsonString(&out, t.query);
    out += ", \"k\": " + std::to_string(t.k);
    out += ", \"sampled\": ";
    out += t.sampled ? "true" : "false";
    out += ", \"spans\": [";
    bool first_span = true;
    for (const auto& s : t.spans) {
      out += first_span ? "\n      " : ",\n      ";
      first_span = false;
      out += "{\"id\": " + std::to_string(s.span_id) +
             ", \"parent\": " + std::to_string(s.parent_id) + ", \"name\": ";
      AppendJsonString(&out, s.name);
      out += ", \"start_ms\": " + FormatMs(s.start_ms) +
             ", \"duration_ms\": " + FormatMs(s.duration_ms) + ", \"tags\": {";
      bool first_tag = true;
      for (const auto& [key, value] : s.tags) {
        if (!first_tag) out += ", ";
        first_tag = false;
        AppendJsonString(&out, key);
        out += ": ";
        AppendJsonString(&out, value);
      }
      out += "}}";
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

std::string Tracer::SlowLogText() const {
  std::vector<SlowQueryEntry> entries = SlowLog();
  std::string out;
  for (const auto& e : entries) {
    out += "slow-query trace=" + std::to_string(e.trace_id) + " q=\"" +
           e.query + "\" k=" + std::to_string(e.k) +
           " total_ms=" + FormatMs(e.total_ms) + "\n";
    for (const auto& [name, ms] : e.layer_ms) {
      out += "  " + name + ": " + FormatMs(ms) + " ms\n";
    }
    out += "  blocks_decoded=" + std::to_string(e.blocks_decoded) +
           " blocks_skipped=" + std::to_string(e.blocks_skipped) +
           " hedges=" + std::to_string(e.hedges) +
           " cancelled=" + std::to_string(e.cancelled) + "\n";
  }
  return out;
}

// --- Process-global default tracer + thread-local current trace. ---

namespace {
Tracer* g_default_tracer = nullptr;
std::mutex g_default_mu;
}  // namespace

Tracer* DefaultTracer() {
  static Tracer* inert = new Tracer(TracerOptions{});  // sampling off
  std::lock_guard<std::mutex> lock(g_default_mu);
  return g_default_tracer != nullptr ? g_default_tracer : inert;
}

void SetDefaultTracer(Tracer* tracer) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  g_default_tracer = tracer;
}

TraceContext* CurrentTrace() { return t_current_trace; }

ScopedTrace::ScopedTrace(TraceContext* trace) : prev_(t_current_trace) {
  t_current_trace = trace;
}

ScopedTrace::~ScopedTrace() { t_current_trace = prev_; }

}  // namespace obs
}  // namespace deepsurf
