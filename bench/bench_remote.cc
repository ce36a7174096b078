// E10: the distributed serving layer. The paper's endgame is surfaced
// content served to millions of users, which means many machines: this
// harness measures the RPC-shaped shard boundary (src/remote/) over the
// shared Zipf-repetitive query stream (traffic/traffic_gen.h) — a
// shards x replicas x hedging sweep with two built-in verdicts:
//
//   1. equivalence: every configuration's served top-k is byte-identical
//      (score bits + tie-break order) to one exhaustive in-process
//      index — distribution changes nothing;
//   2. tail latency: with a slow replica injected per shard
//      (FlakyTransport), hedged requests cut p99 query latency vs
//      hedging-off, and a killed replica never fails a query.
//
// Exit code gates on the deterministic verdicts only (equivalence,
// failover cleanliness, hedging-beats-slow-replica); raw throughput
// numbers are reported for trend tracking, not gated.

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.h"
#include "index/inverted_index.h"
#include "remote/coordinator.h"
#include "remote/transport.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"
#include "traffic/traffic_gen.h"
#include "util/stats.h"

namespace deepsurf {
namespace {

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

bool SameHits(const std::vector<index::SearchHit>& a,
              const std::vector<index::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

struct GridRow {
  size_t shards, replicas;
  double qps, p50_ms, p99_ms;
  uint64_t rpcs, hedges;
  bool identical;
};

struct HedgeRow {
  bool hedging;
  double p50_ms, p95_ms, p99_ms, qps;
  uint64_t hedges, hedge_wins, failovers;
};

int Run(int argc, char** argv) {
  const char* json_path = nullptr;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    }
  }

  bench::Header(
      "E10: distributed shard serving (RPC boundary, replication, hedging)",
      "serving scales past one machine without changing a single result "
      "bit; hedged requests tame the tail a slow replica creates");

  // Every engine, coordinator, and shard server owns its counters, so
  // each row below reports that configuration's work alone. The metrics
  // artifact is one pane block per instance, collected as each sweep
  // cell finishes; one sampling tracer spans every sweep, so the spans
  // artifact shows hedged RPC span trees with server-side
  // queue-wait/scoring splits carried back in the response frames.
  std::string pane;
  obs::TracerOptions topts;
  topts.sample_every = 97;  // a bounded set of exemplar span trees
  topts.slo_ms = 25.0;      // stragglers land in the slow-query log
  obs::Tracer tracer(topts);

  synthweb::CorpusOptions copts;
  copts.num_deep_sites = 10;
  copts.num_surface_sites = 4;
  copts.min_rows = 40;
  copts.max_rows = 120;
  copts.seed = 99;
  auto corpus = synthweb::BuildCorpus(copts);
  auto docs = synthweb::EntityDocuments(corpus);

  // The shared Zipf-repetitive stream (see traffic/traffic_gen.h;
  // traffic_gen_test pins the bytes), at this harness's pool and stream
  // sizes.
  constexpr size_t kDistinctQueries = 800;
  constexpr size_t kQueries = 1500;
  constexpr size_t kTopK = 10;
  traffic::ZipfStreamOptions zopts;
  zopts.distinct = kDistinctQueries;
  zopts.total = kQueries;
  auto stream = traffic::BuildZipfQueryStream(corpus, zopts);
  const std::vector<std::string>& queries = stream.queries;
  std::printf("corpus: %zu docs, stream: %zu queries zipf(1.0) over %zu "
              "distinct\n",
              docs.size(), kQueries, kDistinctQueries);

  // The exhaustive single-index reference all configurations must match.
  index::IndexOptions ref_opts;
  ref_opts.enable_pruning = false;
  index::InvertedIndex reference(ref_opts);
  DS_CHECK(reference.InsertBatch(docs).ok());
  constexpr size_t kEquivalenceQueries = 300;
  std::vector<std::vector<index::SearchHit>> expected;
  expected.reserve(kEquivalenceQueries);
  for (size_t i = 0; i < kEquivalenceQueries; ++i) {
    expected.push_back(reference.Search(queries[i], kTopK));
  }

  bool all_identical = true;
  // Cluster memory accounting (summed one-replica-per-shard over the
  // health probes); the logical corpus is the same at every grid
  // config, so the last capture stands for all of them.
  index::IndexMemoryUsage cluster_mem;

  // --- Sweep 1: shards x replicas on a healthy loopback fabric. ---
  std::vector<GridRow> grid;
  std::printf("\nhealthy fabric (serve::Engine cache off):\n");
  std::printf("%7s %9s | %9s %9s %9s | %7s %7s | %s\n", "shards", "replicas",
              "q/s", "p50 ms", "p99 ms", "rpcs", "hedges", "equal");
  for (size_t shards : {1u, 2u, 4u}) {
    for (size_t replicas : {1u, 2u, 3u}) {
      remote::LoopbackTransport transport(shards, replicas);
      remote::CoordinatorOptions copts_grid;
      copts_grid.tracer = &tracer;
      remote::Coordinator coordinator(&transport, copts_grid);
      serve::EngineOptions eopts;
      eopts.cache_capacity = 0;  // measure the index path, not the cache
      eopts.default_top_k = kTopK;
      eopts.tracer = &tracer;
      serve::Engine engine(&coordinator, eopts);
      DS_CHECK(coordinator.InsertBatch(docs).ok());

      bool identical = true;
      for (size_t i = 0; i < kEquivalenceQueries; ++i) {
        if (!SameHits(expected[i],
                      coordinator.Search(queries[i], kTopK))) {
          identical = false;
        }
      }
      if (!identical) all_identical = false;

      stats::PercentileTracker lat(kQueries);
      auto start = std::chrono::steady_clock::now();
      for (const auto& q : queries) {
        auto qstart = std::chrono::steady_clock::now();
        (void)engine.Search(q);
        lat.Add(Seconds(qstart) * 1e3);
      }
      double wall = Seconds(start);
      cluster_mem = coordinator.MemoryUsage();
      auto cstats = coordinator.stats();
      GridRow row{shards,
                  replicas,
                  static_cast<double>(kQueries) / wall,
                  lat.Quantile(0.50),
                  lat.Quantile(0.99),
                  cstats.rpcs,
                  cstats.hedges,
                  identical};
      grid.push_back(row);
      std::printf("%7zu %9zu | %9.0f %9.3f %9.3f | %7llu %7llu | %s\n",
                  shards, replicas, row.qps, row.p50_ms, row.p99_ms,
                  static_cast<unsigned long long>(row.rpcs),
                  static_cast<unsigned long long>(row.hedges),
                  identical ? "yes" : "NO");
      const std::string cell = "grid shards=" + std::to_string(shards) +
                               " replicas=" + std::to_string(replicas);
      pane += bench::PaneBlock(cell + " engine", engine.metrics());
      pane += bench::PaneBlock(cell + " coordinator", coordinator.metrics());
      bench::AppendServerBlocks(cell, transport, &pane);
    }
  }

  // --- Sweep 2: a slow replica per shard; hedging off vs on. ---
  // Replica 0 of every shard answers 4ms late — the strained machine of
  // the hedging literature. Hedging off eats the delay whenever the
  // rotation lands there; hedging on races the other replica.
  std::printf("\nslow-replica fabric (4ms injected on replica 0 of each "
              "shard, 2 shards x 2 replicas):\n");
  std::printf("%8s | %9s %9s %9s %9s | %7s %7s %9s\n", "hedging", "q/s",
              "p50 ms", "p95 ms", "p99 ms", "hedges", "wins", "failovers");
  std::vector<HedgeRow> hedge_rows;
  bool hedged_identical = true;
  for (bool hedging : {false, true}) {
    remote::LoopbackTransport loopback(2, 2);
    remote::FlakyTransport flaky(&loopback, {});
    remote::CoordinatorOptions ropts;
    ropts.hedging = hedging;
    ropts.hedge_min_ms = 0.2;
    ropts.hedge_max_ms = 1.0;  // hedge well before the 4ms injected delay
    ropts.tracer = &tracer;
    remote::Coordinator coordinator(&flaky, ropts);
    DS_CHECK(coordinator.InsertBatch(docs).ok());
    for (size_t s = 0; s < 2; ++s) flaky.SetReplicaDelay(s, 0, 4.0);

    for (size_t i = 0; i < kEquivalenceQueries; ++i) {
      if (!SameHits(expected[i], coordinator.Search(queries[i], kTopK))) {
        hedged_identical = false;
      }
    }

    stats::PercentileTracker lat(kQueries);
    auto start = std::chrono::steady_clock::now();
    for (const auto& q : queries) {
      auto qstart = std::chrono::steady_clock::now();
      (void)coordinator.Search(q, kTopK);
      lat.Add(Seconds(qstart) * 1e3);
    }
    double wall = Seconds(start);
    auto cstats = coordinator.stats();
    HedgeRow row{hedging,
                 lat.Quantile(0.50),
                 lat.Quantile(0.95),
                 lat.Quantile(0.99),
                 static_cast<double>(kQueries) / wall,
                 cstats.hedges,
                 cstats.hedge_wins,
                 cstats.failovers};
    hedge_rows.push_back(row);
    std::printf("%8s | %9.0f %9.3f %9.3f %9.3f | %7llu %7llu %9llu\n",
                hedging ? "on" : "off", row.qps, row.p50_ms, row.p95_ms,
                row.p99_ms, static_cast<unsigned long long>(row.hedges),
                static_cast<unsigned long long>(row.hedge_wins),
                static_cast<unsigned long long>(row.failovers));
    const std::string cell =
        std::string("slow_replica hedging=") + (hedging ? "on" : "off");
    pane += bench::PaneBlock(cell + " coordinator", coordinator.metrics());
    bench::AppendServerBlocks(cell, loopback, &pane);
  }
  if (!hedged_identical) all_identical = false;
  // Gate against the un-hedged MEDIAN, not its p99: the median is
  // structurally pinned near the injected delay (half the primaries are
  // slow), so a scheduler hiccup on a noisy CI runner cannot flip the
  // verdict the way a p99-vs-p99 race could. The raw p99s are still
  // printed and exported for the real claim.
  bool hedging_cuts_p99 = hedge_rows[1].p99_ms < hedge_rows[0].p50_ms;
  std::printf("  p99 with hedging: %.3f ms vs %.3f ms without (%.1fx); "
              "gate: hedged p99 < un-hedged median (%.3f ms)\n",
              hedge_rows[1].p99_ms, hedge_rows[0].p99_ms,
              hedge_rows[0].p99_ms / hedge_rows[1].p99_ms,
              hedge_rows[0].p50_ms);

  // --- Sweep 3: kill a replica mid-serve; failover must cover it. ---
  bool failover_clean = true;
  uint64_t failover_partial = 0;
  {
    remote::LoopbackTransport loopback(2, 2);
    remote::FlakyTransport flaky(&loopback, {});
    remote::CoordinatorOptions fopts;
    fopts.tracer = &tracer;
    remote::Coordinator coordinator(&flaky, fopts);
    DS_CHECK(coordinator.InsertBatch(docs).ok());
    for (size_t s = 0; s < 2; ++s) flaky.Kill(s, 1);
    for (size_t i = 0; i < kEquivalenceQueries; ++i) {
      if (!SameHits(expected[i], coordinator.Search(queries[i], kTopK))) {
        failover_clean = false;
      }
    }
    auto cstats = coordinator.stats();
    failover_partial = cstats.partial_results;
    if (failover_partial != 0) failover_clean = false;
    std::printf("\nkilled replica (1 of 2 per shard): %zu queries, "
                "%llu partial, %llu failovers, results %s\n",
                kEquivalenceQueries,
                static_cast<unsigned long long>(failover_partial),
                static_cast<unsigned long long>(cstats.failovers),
                failover_clean ? "identical" : "DIVERGED");
    pane += bench::PaneBlock("killed_replica coordinator",
                             coordinator.metrics());
    bench::AppendServerBlocks("killed_replica", loopback, &pane);
  }

  const double bytes_per_posting = cluster_mem.bytes_per_posting();
  std::printf("\ncluster memory (one replica per shard): %llu postings, "
              "%.2f bytes/posting (%.2f doc-id), %.1f MB total\n",
              static_cast<unsigned long long>(cluster_mem.num_postings),
              bytes_per_posting, cluster_mem.doc_bytes_per_posting(),
              static_cast<double>(cluster_mem.total_bytes()) /
                  (1024.0 * 1024.0));

  bool obs_complete = bench::DumpObs("bench_remote", json_path, pane, tracer);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\n  \"bench\": \"bench_remote\",\n  \"docs\": %zu,\n"
                   "  \"memory\": {\"bytes_per_posting\": %.4f, "
                   "\"doc_bytes_per_posting\": %.4f, \"num_postings\": %llu, "
                   "\"total_bytes\": %llu},\n"
                   "  \"grid\": [\n",
                   docs.size(), bytes_per_posting,
                   cluster_mem.doc_bytes_per_posting(),
                   static_cast<unsigned long long>(cluster_mem.num_postings),
                   static_cast<unsigned long long>(cluster_mem.total_bytes()));
      for (size_t i = 0; i < grid.size(); ++i) {
        const auto& g = grid[i];
        std::fprintf(
            f,
            "    {\"shards\": %zu, \"replicas\": %zu, \"qps\": %.0f, "
            "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"rpcs\": %llu, "
            "\"identical\": %s}%s\n",
            g.shards, g.replicas, g.qps, g.p50_ms, g.p99_ms,
            static_cast<unsigned long long>(g.rpcs),
            g.identical ? "true" : "false",
            i + 1 < grid.size() ? "," : "");
      }
      std::fprintf(f, "  ],\n  \"slow_replica\": [\n");
      for (size_t i = 0; i < hedge_rows.size(); ++i) {
        const auto& h = hedge_rows[i];
        std::fprintf(
            f,
            "    {\"hedging\": %s, \"qps\": %.0f, \"p50_ms\": %.3f, "
            "\"p95_ms\": %.3f, \"p99_ms\": %.3f, \"hedges\": %llu, "
            "\"hedge_wins\": %llu}%s\n",
            h.hedging ? "true" : "false", h.qps, h.p50_ms, h.p95_ms,
            h.p99_ms, static_cast<unsigned long long>(h.hedges),
            static_cast<unsigned long long>(h.hedge_wins),
            i + 1 < hedge_rows.size() ? "," : "");
      }
      std::fprintf(
          f,
          "  ],\n  \"verdict\": {\"all_identical\": %s, "
          "\"hedging_cuts_p99\": %s, \"failover_clean\": %s, "
          "\"obs_complete\": %s}\n}\n",
          all_identical ? "true" : "false",
          hedging_cuts_p99 ? "true" : "false",
          failover_clean ? "true" : "false",
          obs_complete ? "true" : "false");
      std::fclose(f);
      std::printf("json written to %s\n", json_path);
    }
  }

  bool pass =
      all_identical && hedging_cuts_p99 && failover_clean && obs_complete;
  bench::Verdict(
      pass,
      "distributed top-k byte-identical to the exhaustive single index at "
      "every shards x replicas x hedging configuration; hedging beats the "
      "slow replica's p99; a killed replica never fails a query; every "
      "committed span tree complete");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace deepsurf

int main(int argc, char** argv) { return deepsurf::Run(argc, argv); }
