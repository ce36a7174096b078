// Tests for the observability layer (src/obs/): the metrics registry
// (counters, gauges, latency histograms, snapshot/delta, deterministic
// exposition, one registry per serving instance), per-query
// distributed tracing (sampling,
// the over-SLO commit rule, the slow-query log, tree completeness), the
// optional trace/timing tails of the wire frames (old frames stay
// decodable, untraced frames stay byte-identical), and the acceptance
// integration: a remote hedged query produces one span tree with
// coordinator -> replica -> shard-server parent links and the
// queue-wait/scoring split measured server-side.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "index/inverted_index.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "querylog/query_stream.h"
#include "remote/coordinator.h"
#include "remote/transport.h"
#include "remote/wire.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"
#include "test_support.h"

namespace deepsurf {
namespace obs {
namespace {

// --- Metrics registry. ---

TEST(CounterTest, ConcurrentIncrementsSum) {
  Counter c;
  constexpr size_t kThreads = 8;
  constexpr uint64_t kPerThread = 20000;
  std::vector<std::thread> pool;
  for (size_t t = 0; t < kThreads; ++t) {
    pool.emplace_back([&c] {
      for (uint64_t i = 0; i < kPerThread; ++i) c.Inc();
    });
  }
  for (auto& th : pool) th.join();
  EXPECT_EQ(c.Value(), kThreads * kPerThread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  g.Set(5);
  g.Add(-7);
  EXPECT_EQ(g.Value(), -2);
}

TEST(HistogramTest, ObserveLandsInBuckets) {
  LatencyHistogram h({1.0, 10.0, 100.0});
  h.Observe(0.5);    // bucket 0 (<= 1)
  h.Observe(5.0);    // bucket 1
  h.Observe(50.0);   // bucket 2
  h.Observe(5000.0); // +inf bucket
  EXPECT_EQ(h.num_buckets(), 4u);
  EXPECT_EQ(h.bucket(0), 1u);
  EXPECT_EQ(h.bucket(1), 1u);
  EXPECT_EQ(h.bucket(2), 1u);
  EXPECT_EQ(h.bucket(3), 1u);
  EXPECT_EQ(h.total(), 4u);
  EXPECT_NEAR(h.sum_ms(), 5055.5, 0.01);
}

TEST(RegistryTest, SameNameReturnsSameObject) {
  MetricsRegistry reg;
  Counter* a = reg.counter("serve.queries");
  Counter* b = reg.counter("serve.queries");
  EXPECT_EQ(a, b);
  EXPECT_NE(static_cast<void*>(reg.gauge("serve.depth")),
            static_cast<void*>(reg.gauge("serve.other")));
}

TEST(RegistryTest, GoldenTextDump) {
  MetricsRegistry reg;
  reg.counter("coord.rpcs")->Inc(3);
  reg.gauge("shard.queue_depth")->Set(2);
  reg.histogram("serve.latency_ms", {1.0, 10.0})->Observe(0.5);
  const std::string want =
      "coord.rpcs 3\n"
      "shard.queue_depth 2\n"
      "serve.latency_ms{le=\"1\"} 1\n"
      "serve.latency_ms{le=\"10\"} 0\n"
      "serve.latency_ms{le=\"+inf\"} 0\n"
      "serve.latency_ms_total 1\n"
      "serve.latency_ms_sum_ms 0.5\n";
  EXPECT_EQ(reg.TextDump(), want);
  // Determinism: identical state => identical bytes.
  EXPECT_EQ(reg.TextDump(), reg.TextDump());
}

TEST(RegistryTest, SnapshotDeltaIsWindowActivity) {
  MetricsRegistry reg;
  Counter* c = reg.counter("x.count");
  LatencyHistogram* h = reg.histogram("x_ms", {1.0});
  c->Inc(5);
  h->Observe(0.5);
  MetricsSnapshot t0 = reg.Snapshot();
  c->Inc(3);
  h->Observe(2.0);
  MetricsSnapshot t1 = reg.Snapshot();
  MetricsSnapshot d = t1.Delta(t0);
  EXPECT_EQ(d.counters.at("x.count"), 3u);
  EXPECT_EQ(d.histograms.at("x_ms").total, 1u);
  EXPECT_EQ(d.histograms.at("x_ms").counts[0], 0u);  // the 0.5 predates t0
  EXPECT_EQ(d.histograms.at("x_ms").counts[1], 1u);
  // A metric born between the snapshots appears whole.
  reg.counter("y.count")->Inc(2);
  EXPECT_EQ(reg.Snapshot().Delta(t1).counters.at("y.count"), 2u);
}

TEST(RegistryTest, SnapshotsMonotoneUnderConcurrentIncrements) {
  // The monotone-census rule under fire: while writers hammer a counter
  // and a histogram, every snapshot pair must be non-decreasing
  // field-wise (Delta never needs to saturate). Run under TSan in CI.
  MetricsRegistry reg;
  Counter* c = reg.counter("hot.count");
  LatencyHistogram* h = reg.histogram("hot_ms", {1.0});
  std::atomic<bool> stop{false};
  std::vector<std::thread> writers;
  for (int t = 0; t < 4; ++t) {
    writers.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        c->Inc();
        h->Observe(0.5);
      }
    });
  }
  MetricsSnapshot prev = reg.Snapshot();
  for (int i = 0; i < 200; ++i) {
    MetricsSnapshot next = reg.Snapshot();
    EXPECT_GE(next.counters.at("hot.count"), prev.counters.at("hot.count"));
    EXPECT_GE(next.histograms.at("hot_ms").total,
              prev.histograms.at("hot_ms").total);
    for (size_t b = 0; b < next.histograms.at("hot_ms").counts.size(); ++b) {
      EXPECT_GE(next.histograms.at("hot_ms").counts[b],
                prev.histograms.at("hot_ms").counts[b]);
    }
    prev = std::move(next);
  }
  stop.store(true);
  for (auto& th : writers) th.join();
}

TEST(HistogramSnapshotTest, QuantileInterpolates) {
  LatencyHistogram h({1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) h.Observe(1.5);  // all in (1, 2]
  MetricsRegistry reg;  // snapshot via a registry for the public path
  LatencyHistogram* rh = reg.histogram("q_ms", {1.0, 2.0, 4.0});
  for (int i = 0; i < 100; ++i) rh->Observe(1.5);
  HistogramSnapshot snap = reg.Snapshot().histograms.at("q_ms");
  double p50 = snap.Quantile(0.5);
  EXPECT_GT(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_DOUBLE_EQ(snap.Quantile(0.0), snap.Quantile(0.0));  // total order
}

// --- Tracer. ---

TEST(TracerTest, DisabledReturnsNull) {
  Tracer tracer;  // sample_every = 0
  EXPECT_FALSE(tracer.enabled());
  EXPECT_EQ(tracer.StartTrace("query"), nullptr);
  // Null-safe RAII: no trace, no crash.
  ScopedSpan span(nullptr, "x", TraceContext::kRootSpan);
  EXPECT_EQ(span.id(), 0u);
}

TEST(TracerTest, SamplingOneInN) {
  TracerOptions opts;
  opts.sample_every = 3;
  Tracer tracer(opts);
  int sampled = 0;
  for (int i = 0; i < 9; ++i) {
    auto t = tracer.StartTrace("query");
    ASSERT_NE(t, nullptr);
    if (t->sampled()) ++sampled;
    t->Finish();
  }
  EXPECT_EQ(sampled, 3);
  // Only sampled traces commit when no SLO rule is configured.
  EXPECT_EQ(tracer.traces_committed(), 3u);
  EXPECT_EQ(tracer.traces_started(), 9u);
}

TEST(TracerTest, DeterministicTraceIdsNoRng) {
  TracerOptions opts;
  opts.sample_every = 1;
  Tracer a(opts), b(opts);
  auto ta = a.StartTrace("q");
  auto tb = b.StartTrace("q");
  // Same seed + same sequence number => same id, with no RNG consumed.
  EXPECT_EQ(ta->trace_id(), tb->trace_id());
  EXPECT_NE(ta->trace_id(), 0u);
  auto ta2 = a.StartTrace("q");
  EXPECT_NE(ta2->trace_id(), ta->trace_id());
}

TEST(TracerTest, SpanTreeStructure) {
  TracerOptions opts;
  opts.sample_every = 1;
  Tracer tracer(opts);
  auto t = tracer.StartTrace("query");
  uint64_t lookup = t->StartSpan("serve.cache_lookup", TraceContext::kRootSpan);
  t->EndSpan(lookup);
  uint64_t rpc = t->AddCompletedSpan("coord.rpc", TraceContext::kRootSpan,
                                     /*start_ms=*/1.0, /*duration_ms=*/2.0);
  t->Tag(rpc, "replica", uint64_t{1});
  t->SetQuery("honda civic", 10);
  t->Finish();
  auto traces = tracer.Traces();
  ASSERT_EQ(traces.size(), 1u);
  const Trace& tr = traces[0];
  EXPECT_TRUE(TreeComplete(tr));
  ASSERT_EQ(tr.spans.size(), 3u);
  EXPECT_EQ(tr.spans[0].span_id, TraceContext::kRootSpan);
  EXPECT_EQ(tr.spans[0].parent_id, 0u);
  EXPECT_EQ(tr.spans[1].name, "serve.cache_lookup");
  EXPECT_EQ(tr.spans[2].parent_id, TraceContext::kRootSpan);
  EXPECT_EQ(tr.query, "honda civic");
  EXPECT_EQ(tr.k, 10u);
  // Finish is idempotent: a second call must not double-commit.
  t->Finish();
  EXPECT_EQ(tracer.traces_committed(), 1u);
}

TEST(TracerTest, TreeCompleteDetectsOrphans) {
  Trace tr;
  Span root;
  root.span_id = 1;
  tr.spans.push_back(root);
  Span orphan;
  orphan.span_id = 2;
  orphan.parent_id = 99;  // no such span
  tr.spans.push_back(orphan);
  EXPECT_FALSE(TreeComplete(tr));
  tr.spans[1].parent_id = 1;
  EXPECT_TRUE(TreeComplete(tr));
}

TEST(TracerTest, OverSloCommitsUnsampledAndFeedsSlowLog) {
  TracerOptions opts;
  opts.sample_every = 1000000;  // effectively never sampled (after #0)
  opts.slo_ms = 0.0001;         // everything is over-SLO
  Tracer tracer(opts);
  tracer.StartTrace("warmup")->Finish();  // consume the sampled seq 0
  auto t = tracer.StartTrace("query");
  ASSERT_NE(t, nullptr);
  EXPECT_FALSE(t->sampled());
  uint64_t rpc = t->AddCompletedSpan("coord.rpc", TraceContext::kRootSpan,
                                     0.0, 1.5);
  t->Tag(rpc, "hedge", "1");
  uint64_t score = t->AddCompletedSpan("shard.score", rpc, 0.0, 1.0);
  t->Tag(score, "blocks_decoded", uint64_t{42});
  t->Tag(score, "blocks_skipped", uint64_t{7});
  t->SetQuery("slow one", 5);
  // Make sure some wall time passes so total_ms > slo_ms.
  std::this_thread::sleep_for(std::chrono::milliseconds(1));
  t->Finish();
  auto slow = tracer.SlowLog();
  // The warmup query was over-SLO too (everything is, at 0.0001 ms);
  // the entry under test is the last one.
  ASSERT_FALSE(slow.empty());
  const SlowQueryEntry& e = slow.back();
  EXPECT_EQ(e.query, "slow one");
  EXPECT_EQ(e.k, 5u);
  EXPECT_GT(e.total_ms, 0.0);
  EXPECT_EQ(e.blocks_decoded, 42u);
  EXPECT_EQ(e.blocks_skipped, 7u);
  EXPECT_EQ(e.hedges, 1u);
  ASSERT_FALSE(e.layer_ms.empty());
  // The unsampled-but-slow trace is committed too.
  auto traces = tracer.Traces();
  ASSERT_EQ(traces.size(), 2u);
  EXPECT_FALSE(traces[1].sampled);
  EXPECT_FALSE(tracer.SlowLogText().empty());
}

TEST(TracerTest, EvictsWholeOldestTraces) {
  TracerOptions opts;
  opts.sample_every = 1;
  opts.max_traces = 2;
  Tracer tracer(opts);
  for (int i = 0; i < 5; ++i) tracer.StartTrace("query")->Finish();
  EXPECT_EQ(tracer.Traces().size(), 2u);
  EXPECT_EQ(tracer.traces_committed(), 5u);
  EXPECT_EQ(tracer.traces_evicted(), 3u);
  for (const auto& t : tracer.Traces()) EXPECT_TRUE(TreeComplete(t));
}

TEST(TracerTest, SpansJsonIsDeterministicAndTagged) {
  TracerOptions opts;
  opts.sample_every = 1;
  Tracer tracer(opts);
  auto t = tracer.StartTrace("query");
  uint64_t rpc = t->AddCompletedSpan("coord.rpc", TraceContext::kRootSpan,
                                     1.0, 2.0);
  t->Tag(rpc, "outcome", "won");
  t->Finish();
  std::string json = tracer.SpansJson();
  EXPECT_NE(json.find("\"trace_id\": \""), std::string::npos) << json;
  EXPECT_NE(json.find("\"coord.rpc\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"outcome\": \"won\""), std::string::npos) << json;
  EXPECT_EQ(json, tracer.SpansJson());
}

TEST(ScopedTraceTest, InstallsAndRestoresCurrent) {
  EXPECT_EQ(CurrentTrace(), nullptr);
  TracerOptions opts;
  opts.sample_every = 1;
  Tracer tracer(opts);
  auto t = tracer.StartTrace("query");
  {
    ScopedTrace install(t.get());
    EXPECT_EQ(CurrentTrace(), t.get());
    {
      ScopedTrace inner(nullptr);
      EXPECT_EQ(CurrentTrace(), nullptr);
    }
    EXPECT_EQ(CurrentTrace(), t.get());
  }
  EXPECT_EQ(CurrentTrace(), nullptr);
}

// --- Wire compatibility of the optional trace/timing tails. ---

TEST(WireTraceTest, UntracedFramesAreByteIdenticalToLegacy) {
  remote::SearchRequest req;
  req.terms = {"alpha", "beta"};
  req.k = 10;
  req.stats.num_docs = 3.0;
  req.stats.total_length = 2.5;
  req.stats.term_df = {1, 2};
  const std::string untraced = Encode(req);

  remote::SearchRequest traced = req;
  traced.trace_id = 0xdeadbeefcafef00dULL;
  traced.parent_span = 4;
  traced.trace_flags = 1;
  const std::string with_tail = Encode(traced);

  // The traced frame is the untraced frame plus a tail: an old decoder
  // reading only the legacy fields sees identical bytes.
  ASSERT_GT(with_tail.size(), untraced.size());
  EXPECT_EQ(with_tail.compare(0, untraced.size(), untraced), 0);

  // Old frame (no tail) through the new decoder: trace fields default.
  auto decoded = remote::DecodeSearchRequest(untraced);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->trace_id, 0u);
  EXPECT_EQ(decoded->parent_span, 0u);

  // New traced frame round-trips.
  auto rt = remote::DecodeSearchRequest(with_tail);
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt->trace_id, traced.trace_id);
  EXPECT_EQ(rt->parent_span, 4u);
  EXPECT_EQ(rt->trace_flags, 1);
  EXPECT_EQ(rt->terms, req.terms);
  EXPECT_EQ(rt->k, 10u);
}

TEST(WireTraceTest, SearchResponseTimingTailRoundTrips) {
  remote::SearchResponse resp;
  resp.hits.push_back(index::SearchHit{3, 1.25});
  const std::string plain = Encode(resp);
  remote::SearchResponse timed = resp;
  timed.has_timing = true;
  timed.queue_us = 150;
  timed.score_us = 900;
  timed.blocks_decoded = 12;
  timed.blocks_skipped = 34;
  const std::string with_tail = Encode(timed);
  ASSERT_GT(with_tail.size(), plain.size());
  EXPECT_EQ(with_tail.compare(0, plain.size(), plain), 0);
  auto old_frame = remote::DecodeSearchResponse(plain);
  ASSERT_TRUE(old_frame.ok());
  EXPECT_FALSE(old_frame->has_timing);
  auto rt = remote::DecodeSearchResponse(with_tail);
  ASSERT_TRUE(rt.ok());
  ASSERT_TRUE(rt->has_timing);
  EXPECT_EQ(rt->queue_us, 150u);
  EXPECT_EQ(rt->score_us, 900u);
  EXPECT_EQ(rt->blocks_decoded, 12u);
  EXPECT_EQ(rt->blocks_skipped, 34u);
  ASSERT_EQ(rt->hits.size(), 1u);
  EXPECT_EQ(rt->hits[0].doc, 3u);
}

TEST(WireTraceTest, TruncatedTraceTailIsRejected) {
  remote::SearchRequest req;
  req.terms = {"x"};
  req.k = 1;
  req.trace_id = 9;
  std::string frame = Encode(req);
  // Chop the tail mid-field: trailing bytes exist but do not decode.
  frame.resize(frame.size() - 3);
  EXPECT_FALSE(remote::DecodeSearchRequest(frame).ok());
}

// --- Acceptance: a hedged remote query yields one complete span tree
// with coordinator -> replica -> shard-server parent links. ---

const obs::Span* FindSpan(const Trace& t, const std::string& name) {
  for (const auto& s : t.spans) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::string TagValue(const Span& s, const std::string& key) {
  for (const auto& [k, v] : s.tags) {
    if (k == key) return v;
  }
  return "";
}

TEST(ObsIntegrationTest, HedgedRemoteQueryProducesCompleteSpanTree) {
  synthweb::CorpusOptions copts_web;
  copts_web.num_deep_sites = 5;
  copts_web.num_surface_sites = 2;
  copts_web.min_rows = 15;
  copts_web.max_rows = 40;
  copts_web.seed = 77;
  auto corpus = synthweb::BuildCorpus(copts_web);
  auto docs = synthweb::EntityDocuments(corpus);

  remote::LoopbackTransport loopback(2, 2, {});
  remote::FlakyTransport flaky(&loopback, {});  // no random faults

  TracerOptions topts;
  topts.sample_every = 1;  // trace every query
  Tracer tracer(topts);

  remote::CoordinatorOptions copts;
  copts.hedge_max_ms = 1.0;  // well under the slow replica's delay
  copts.tracer = &tracer;
  remote::Coordinator coordinator(&flaky, copts);
  ASSERT_TRUE(coordinator.InsertBatch(docs).ok());

  // Replica 0 of each shard becomes a strained machine: hedges fire at
  // the other replica and win.
  flaky.SetReplicaDelay(0, 0, 8.0);
  flaky.SetReplicaDelay(1, 0, 8.0);

  serve::EngineOptions eopts;
  eopts.tracer = &tracer;
  serve::Engine engine(&coordinator, eopts);

  // 40 distinct queries: each misses the cache and reaches the
  // coordinator.
  querylog::QueryStreamOptions qopts;
  qopts.seed = 2026;
  querylog::QueryStream stream(&corpus, qopts);
  std::set<std::string> seen;
  for (size_t draws = 0; seen.size() < 40 && draws < 10000; ++draws) {
    std::string query = stream.Next().text;
    if (!seen.insert(serve::Engine::NormalizeQuery(query)).second) continue;
    auto result = engine.Search(query, 10);
    EXPECT_TRUE(result.status.ok());
    EXPECT_FALSE(result.from_cache);
  }
  ASSERT_EQ(seen.size(), 40u);

  auto traces = tracer.Traces();
  ASSERT_FALSE(traces.empty());
  // Every committed tree is complete: no orphan spans, ever.
  for (const auto& t : traces) {
    EXPECT_TRUE(TreeComplete(t)) << "orphan span in trace " << t.trace_id;
  }

  // Find a trace where a hedge fired AND produced server-side timing.
  const Trace* hedged = nullptr;
  const Span* winner = nullptr;
  for (const auto& t : traces) {
    bool has_hedge = false;
    for (const auto& s : t.spans) {
      if (s.name == "coord.rpc" && TagValue(s, "hedge") == "1" &&
          TagValue(s, "outcome") == "won") {
        has_hedge = true;
        winner = &s;
      }
    }
    if (has_hedge) hedged = &t;
    if (hedged != nullptr) break;
  }
  ASSERT_NE(hedged, nullptr)
      << "40 queries against a slow replica must hedge at least once";

  // Layer structure: engine root -> index search -> the coordinator's
  // search round -> merge.
  const Span* root = FindSpan(*hedged, "query");
  ASSERT_NE(root, nullptr);
  EXPECT_EQ(root->span_id, TraceContext::kRootSpan);
  ASSERT_NE(FindSpan(*hedged, "serve.index_search"), nullptr);
  const Span* search_round = FindSpan(*hedged, "coord.search_round");
  ASSERT_NE(search_round, nullptr);
  ASSERT_NE(FindSpan(*hedged, "coord.merge"), nullptr);

  // Coordinator -> replica: the winning hedge rpc hangs under the round.
  ASSERT_NE(winner, nullptr);
  EXPECT_EQ(winner->parent_id, search_round->span_id);
  EXPECT_NE(TagValue(*winner, "replica"), "");

  // Replica -> shard server: the search round's winning rpc carries the
  // queue-wait/scoring split measured server-side.
  const Span* queue_wait = nullptr;
  const Span* score = nullptr;
  for (const auto& s : hedged->spans) {
    if (s.name != "coord.rpc" || TagValue(s, "outcome") != "won") continue;
    if (s.parent_id != search_round->span_id) continue;
    for (const auto& child : hedged->spans) {
      if (child.parent_id != s.span_id) continue;
      if (child.name == "shard.queue_wait") queue_wait = &child;
      if (child.name == "shard.score") score = &child;
    }
    if (queue_wait != nullptr && score != nullptr) break;
  }
  ASSERT_NE(queue_wait, nullptr)
      << "search-round rpc must carry the server's queue-wait span";
  ASSERT_NE(score, nullptr)
      << "search-round rpc must carry the server's scoring span";
  EXPECT_GE(queue_wait->duration_ms, 0.0);
  EXPECT_GT(score->duration_ms, 0.0);
  EXPECT_NE(TagValue(*score, "blocks_decoded"), "");
  EXPECT_NE(TagValue(*score, "blocks_skipped"), "");

  // The hedge is visible in the instances' metrics too.
  MetricsSnapshot coord_snap = coordinator.metrics().Snapshot();
  EXPECT_GT(coord_snap.counters.at("coord.hedges"), 0u);
  EXPECT_GT(coord_snap.counters.at("coord.rpcs"), 0u);
  MetricsSnapshot serve_snap = engine.metrics().Snapshot();
  EXPECT_EQ(serve_snap.counters.at("serve.queries"), 40u);
  EXPECT_GT(serve_snap.histograms.at("serve.latency_ms").total, 0u);
}

// Per-instance truth: each serving component owns its registry, so two
// instances of one kind running side by side never see each other's
// work — neither in stats() nor in metrics().
TEST(ObsIntegrationTest, EveryInstanceCountsOnlyItsOwnWork) {
  synthweb::CorpusOptions web;
  web.num_deep_sites = 5;
  web.num_surface_sites = 2;
  web.min_rows = 15;
  web.max_rows = 40;
  web.seed = 77;
  auto corpus = synthweb::BuildCorpus(web);
  auto docs = synthweb::EntityDocuments(corpus);
  querylog::QueryStreamOptions qopts;
  qopts.seed = 2026;
  querylog::QueryStream stream(&corpus, qopts);
  std::vector<std::string> queries;
  for (size_t i = 0; i < 40; ++i) queries.push_back(stream.Next().text);

  // Two coordinators over separate 2x2 fabrics, each with one slow
  // replica per shard; only one of them may hedge.
  remote::LoopbackTransport loopback_off(2, 2, {});
  remote::FlakyTransport flaky_off(&loopback_off, {});
  remote::LoopbackTransport loopback_on(2, 2, {});
  remote::FlakyTransport flaky_on(&loopback_on, {});
  remote::CoordinatorOptions off_opts;
  off_opts.hedging = false;
  remote::CoordinatorOptions on_opts;
  on_opts.hedge_max_ms = 1.0;  // well under the slow replica's delay
  remote::Coordinator off(&flaky_off, off_opts);
  remote::Coordinator on(&flaky_on, on_opts);
  ASSERT_TRUE(off.InsertBatch(docs).ok());
  ASSERT_TRUE(on.InsertBatch(docs).ok());
  for (size_t s = 0; s < 2; ++s) {
    flaky_off.SetReplicaDelay(s, 0, 8.0);
    flaky_on.SetReplicaDelay(s, 0, 8.0);
  }
  for (const auto& q : queries) {
    off.Search(q, 10);
    on.Search(q, 10);
  }

  const remote::CoordinatorStats off_stats = off.stats();
  const MetricsSnapshot off_snap = off.metrics().Snapshot();
  EXPECT_EQ(off_stats.hedges, 0u);
  EXPECT_EQ(off_stats.hedge_wins, 0u);
  EXPECT_EQ(off_snap.counters.at("coord.hedges"), 0u);
  EXPECT_EQ(off_snap.counters.at("coord.hedge_wins"), 0u);
  EXPECT_EQ(off_snap.counters.at("coord.searches"), queries.size());

  const remote::CoordinatorStats on_stats = on.stats();
  const MetricsSnapshot on_snap = on.metrics().Snapshot();
  EXPECT_GT(on_stats.hedges, 0u)
      << "40 queries against a slow replica must hedge at least once";
  EXPECT_GT(on_snap.counters.at("coord.hedges"), 0u);
  EXPECT_EQ(on_snap.counters.at("coord.searches"), queries.size());

  // Two engines over one index serve different loads.
  index::InvertedIndex idx;
  ASSERT_TRUE(idx.InsertBatch(docs).ok());
  serve::Engine ten(&idx);
  serve::Engine three(&idx);
  for (size_t i = 0; i < 10; ++i) ten.Search(queries[i], 10);
  for (size_t i = 0; i < 3; ++i) three.Search(queries[i], 10);
  EXPECT_EQ(ten.stats().queries, 10u);
  EXPECT_EQ(three.stats().queries, 3u);
  EXPECT_EQ(ten.metrics().Snapshot().counters.at("serve.queries"), 10u);
  EXPECT_EQ(three.metrics().Snapshot().counters.at("serve.queries"), 3u);
}

TEST(ObsIntegrationTest, TracingOffCostsNoTraces) {
  index::InvertedIndex idx;
  ASSERT_TRUE(
      idx.AddDocument("u1", "t", "alpha beta", false, "h").ok());
  Tracer off;  // sample_every = 0
  serve::EngineOptions eopts;
  eopts.tracer = &off;
  serve::Engine engine(&idx, eopts);
  EXPECT_TRUE(engine.Search("alpha", 5).status.ok());
  EXPECT_EQ(off.traces_started(), 0u);
  EXPECT_TRUE(off.Traces().empty());
}

}  // namespace
}  // namespace obs
}  // namespace deepsurf
