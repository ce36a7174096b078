// Quickstart: the whole deepsurf pipeline in one file.
//
//   1. build a small simulated web (one deep-web site, one hub page);
//   2. crawl the surface — the crawler finds the form but cannot reach
//      the content behind it;
//   3 + 4. hand the discovered forms to the SurfacingDriver, which fans
//      the analyses out over worker threads through a shared probe
//      scheduler and batch-ingests the surfaced pages into the sharded
//      serving index;
//   5. serve a keyword query that only deep-web content can answer,
//      through the caching serve engine.
//
// Run:  ./quickstart
//       ./quickstart --distributed   # same pipeline, but the serving
//                                    # index is a shards x replicas
//                                    # cluster behind the RPC boundary
//                                    # (src/remote/) — same results, bit
//                                    # for bit.

#include <cstdio>
#include <cstring>
#include <memory>

#include "crawler/crawler.h"
#include "crawler/surfacing_driver.h"
#include "index/analyzer.h"
#include "index/sharded_index.h"
#include "net/fetcher.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "remote/coordinator.h"
#include "remote/transport.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"

using namespace deepsurf;

int main(int argc, char** argv) {
  bool distributed =
      argc > 1 && std::strcmp(argv[1], "--distributed") == 0;
  // 1. A tiny web: 2 deep-web sites + hub + a couple of surface sites.
  synthweb::CorpusOptions copts;
  copts.num_deep_sites = 2;
  copts.num_surface_sites = 2;
  copts.min_rows = 80;
  copts.max_rows = 150;
  copts.post_probability = 0.0;
  copts.seed = 4242;
  auto corpus = synthweb::BuildCorpus(copts);
  std::printf("web: %zu deep sites (%zu hidden records), seed %s\n",
              corpus.deep_sites.size(), corpus.TotalDeepRows(),
              corpus.directory_url.c_str());

  // 2. Crawl. Only linked pages are reachable; /search result pages are
  //    not (that is what makes the content "deep"). Pages land in the
  //    serving index: in-process it is the hash-partitioned ShardedIndex;
  //    with --distributed the same corpus goes through the remote
  //    coordinator to a 2-shards x 2-replicas cluster of shard servers
  //    behind the message-passing boundary. Both implement WritableIndex
  //    and return byte-identical results.
  // The observability surface (--distributed): the engine, the
  // coordinator, and each of the four shard servers keep their own
  // counters (printed below as one block per instance), and every query
  // is traced (1-in-1 sampling) into this tracer.
  obs::TracerOptions trace_opts;
  trace_opts.sample_every = 1;
  trace_opts.slo_ms = 25.0;
  obs::Tracer tracer(trace_opts);

  std::unique_ptr<index::ShardedIndex> local_index;
  std::unique_ptr<remote::LoopbackTransport> cluster;
  std::unique_ptr<remote::Coordinator> coordinator;
  index::WritableIndex* index_ptr = nullptr;
  if (distributed) {
    cluster = std::make_unique<remote::LoopbackTransport>(
        /*num_shards=*/2, /*num_replicas=*/2);
    remote::CoordinatorOptions coord_opts;
    coord_opts.tracer = &tracer;
    coordinator = std::make_unique<remote::Coordinator>(cluster.get(),
                                                        coord_opts);
    index_ptr = coordinator.get();
    std::printf("serving mode: distributed — 2 shards x 2 replicas behind "
                "the RPC boundary\n");
  } else {
    index::ShardedIndexOptions sopts;
    sopts.num_shards = 4;
    local_index = std::make_unique<index::ShardedIndex>(sopts);
    index_ptr = local_index.get();
    std::printf("serving mode: in-process ShardedIndex (4 shards)\n");
  }
  index::WritableIndex& index = *index_ptr;
  crawler::Crawler crawler(corpus.web.get(), &index, {});
  if (auto status = crawler.Crawl({corpus.directory_url}); !status.ok()) {
    std::printf("crawl failed: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("crawl: %zu pages fetched, %zu forms discovered, index has "
              "%zu docs\n",
              crawler.stats().pages_fetched, crawler.stats().forms_found,
              index.num_docs());

  // 3 + 4. Surface every discovered form through the corpus driver: two
  // worker threads share one probe scheduler (deduplicating probe cache,
  // per-host accounting) and batch-ingest surfaced pages into the index.
  // Note the seed index stays null: the output index must not seed its
  // own run (see SurfacingDriverOptions::seed_index).
  net::ProbeScheduler scheduler(corpus.web.get());
  crawler::SurfacingDriverOptions dopts;
  dopts.num_threads = 2;
  crawler::SurfacingDriver driver(&scheduler, &index, dopts);
  auto stats = driver.Run(crawler.forms());
  if (!stats.ok()) {
    std::printf("surfacing failed: %s\n", stats.status().ToString().c_str());
    return 1;
  }
  for (const auto& outcome : driver.outcomes()) {
    if (!outcome.status.ok()) {
      std::printf("  %s: surface failed: %s\n",
                  outcome.page_url.host().c_str(),
                  outcome.status.ToString().c_str());
    } else if (outcome.result.skipped_post) {
      std::printf("  %s: POST form, cannot surface\n",
                  outcome.page_url.host().c_str());
    } else {
      std::printf("  %s: %zu probes -> %zu URLs -> %zu pages indexed\n",
                  outcome.page_url.host().c_str(),
                  outcome.result.probes_used, outcome.result.urls.size(),
                  outcome.pages_indexed);
    }
  }
  std::printf("index now has %zu docs (probe cache: %llu requests, %llu "
              "hits, %.0f%% hit rate, %llu budget denials; %zu pages in "
              "%.2fs)\n",
              index.num_docs(),
              static_cast<unsigned long long>(stats->scheduler.requests),
              static_cast<unsigned long long>(stats->scheduler.cache_hits),
              100.0 * stats->scheduler.HitRate(),
              static_cast<unsigned long long>(
                  stats->scheduler.budget_denials),
              stats->pages_indexed, stats->wall_seconds);

  // 5. A query about a *tail* record: only a surfaced page can answer.
  //    Users hit the serve engine, whose LRU result cache absorbs the
  //    repeats that dominate a real (Zipfian) query log.
  serve::EngineOptions eopts;
  if (distributed) eopts.tracer = &tracer;
  serve::Engine engine(&index, eopts);
  const auto& entity = corpus.entities.back();
  auto tokens = index::ContentTokens(corpus.EntityText(entity));
  std::string query = tokens[0] + " " + tokens[1] + " " + tokens[2];
  std::printf("\nquery: \"%s\"\n", query.c_str());
  auto served = engine.Search(query, 5);
  for (size_t i = 0; i < served.hits.size(); ++i) {
    const auto& doc = index.doc(served.hits[i].doc);
    std::printf("  %zu. [%.2f] %s %s\n", i + 1, served.hits[i].score,
                doc.is_deep_web ? "(deep)" : "(surface)",
                doc.url.c_str());
  }
  if (distributed) {
    auto cstats = coordinator->stats();
    std::printf("cluster: %llu RPCs, %llu hedges, %llu failovers, rpc p95 "
                "%.3f ms\n",
                static_cast<unsigned long long>(cstats.rpcs),
                static_cast<unsigned long long>(cstats.hedges),
                static_cast<unsigned long long>(cstats.failovers),
                cstats.rpc_p95_ms);
  }
  auto again = engine.Search(query, 5);
  std::printf("asked again: served from cache = %s (hit rate %.0f%%)\n",
              again.from_cache ? "yes" : "no",
              100.0 * engine.stats().HitRate());
  if (!served.hits.empty() && index.doc(served.hits[0].doc).is_deep_web) {
    std::printf("\nthe top answer is surfaced deep-web content — the "
                "crawler alone could never have reached it.\n");
  }

  if (distributed) {
    // Cluster health from one ProbeHealth sweep, then the serving
    // stack's counters as one deterministic block per instance: serve.*
    // (engine), coord.* (fan-out, hedging, rpc latency), and shard.*
    // (each server's queue and scoring).
    size_t replicas_serving = 0, replicas_current = 0, replicas_total = 0;
    for (const auto& probe : coordinator->ProbeHealth()) {
      ++replicas_total;
      if (!probe.marked_dead) ++replicas_serving;
      if (probe.last_acked_seq == probe.shard_head_seq) ++replicas_current;
    }
    std::printf("replica health: %zu total, %zu serving, %zu current\n",
                replicas_total, replicas_serving, replicas_current);
    std::printf("\n--- one pane of glass (one block per instance) ---\n");
    std::printf("# engine\n%s", engine.metrics().TextDump().c_str());
    std::printf("# coordinator\n%s",
                coordinator->metrics().TextDump().c_str());
    for (size_t s = 0; s < cluster->num_shards(); ++s) {
      for (size_t r = 0; r < cluster->num_replicas(); ++r) {
        std::printf("# server shard=%zu replica=%zu\n%s", s, r,
                    cluster->server(s, r).metrics().TextDump().c_str());
      }
    }
    std::printf("--- tracing: %llu span trees committed (1-in-1 "
                "sampling), %zu slow queries over %.0f ms ---\n",
                static_cast<unsigned long long>(tracer.traces_committed()),
                tracer.SlowLog().size(), tracer.options().slo_ms);
  }
  return 0;
}
