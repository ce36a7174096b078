// Failure-injection tests: the pipeline must degrade gracefully on an
// unreliable web (transient 500s, truncated HTML), never crash, and
// still produce useful (if smaller) output. Same story one layer up:
// the remote serving coordinator must absorb dropped requests
// (timeout + retry), dead replica groups (partial results, never a
// crash), and queue backpressure.

#include <atomic>
#include <chrono>
#include <thread>

#include <gtest/gtest.h>

#include "core/surfacer.h"
#include "crawler/crawler.h"
#include "html/forms.h"
#include "html/parser.h"
#include "html/text.h"
#include "net/flaky_server.h"
#include "querylog/query_stream.h"
#include "remote/coordinator.h"
#include "remote/transport.h"
#include "synthweb/corpus.h"
#include "synthweb/deep_site.h"
#include "synthweb/surface_site.h"
#include "test_support.h"

namespace deepsurf {
namespace {

struct FlakyFixture {
  net::SimulatedWeb web;
  std::shared_ptr<synthweb::DeepWebSite> site;
  std::shared_ptr<net::FlakyServer> flaky;
  net::Url page_url;
  html::Form form;
  std::string scripts;
};

std::unique_ptr<FlakyFixture> MakeFlaky(double error_probability,
                                        double truncate_probability,
                                        uint64_t seed = 77) {
  auto f = std::make_unique<FlakyFixture>();
  Rng rng(seed);
  synthweb::SiteGenOptions gen;
  gen.num_rows = 200;
  gen.force_get = true;
  gen.obfuscate_probability = 0.0;
  f->site = std::make_shared<synthweb::DeepWebSite>(
      synthweb::GenerateSite(synthweb::Domain::kUsedCars,
                             "flaky.example.com", &rng, gen));
  net::FlakyOptions fopts;
  fopts.error_probability = error_probability;
  fopts.truncate_probability = truncate_probability;
  fopts.seed = seed;
  f->flaky = std::make_shared<net::FlakyServer>(f->site, fopts);
  EXPECT_TRUE(f->web.Register(f->flaky).ok());
  // Fetch the form page, retrying past injected failures.
  for (int attempt = 0; attempt < 20; ++attempt) {
    auto resp = f->web.Get("http://flaky.example.com/");
    if (!resp.ok() || resp->status_code != 200) continue;
    auto dom = html::Parse(resp->body);
    auto forms = html::ExtractForms(*dom);
    if (forms.size() != 1) continue;
    f->form = forms[0];
    f->scripts = html::ExtractScriptText(*dom);
    break;
  }
  EXPECT_FALSE(f->form.fields.empty());
  f->page_url = net::Url::Parse("http://flaky.example.com/").value();
  return f;
}

TEST(FlakyServerTest, InjectsConfiguredFailures) {
  auto f = MakeFlaky(0.5, 0.0);
  size_t errors = 0;
  for (int i = 0; i < 200; ++i) {
    auto resp = f->web.Get("http://flaky.example.com/");
    ASSERT_TRUE(resp.ok());
    if (resp->status_code == 500) ++errors;
  }
  EXPECT_GT(errors, 50u);
  EXPECT_LT(errors, 150u);
  EXPECT_GT(f->flaky->failures_injected(), 0u);
}

TEST(FlakyServerTest, SurfacerSurvivesTransientErrors) {
  auto f = MakeFlaky(0.15, 0.0);
  core::SurfacerOptions opts;
  opts.templates.sample_assignments = 8;
  opts.probing.rounds = 1;
  core::Surfacer surfacer(&f->web, nullptr, opts);
  auto result = surfacer.Surface(f->page_url, f->form, f->scripts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->skipped_post);
  // Analysis under 15% failures still finds work to do.
  EXPECT_FALSE(result->urls.empty());
}

TEST(FlakyServerTest, SurfacerSurvivesTruncatedHtml) {
  auto f = MakeFlaky(0.0, 0.3);
  core::SurfacerOptions opts;
  opts.templates.sample_assignments = 8;
  opts.probing.rounds = 1;
  core::Surfacer surfacer(&f->web, nullptr, opts);
  auto result = surfacer.Surface(f->page_url, f->form, f->scripts);
  // Must not crash; either outcome (urls or none) is acceptable on a
  // badly truncating site, but the call itself must succeed.
  ASSERT_TRUE(result.ok());
}

TEST(FlakyServerTest, IndexingSkipsFailedFetches) {
  auto f = MakeFlaky(0.3, 0.0);
  core::SurfacerOptions opts;
  opts.templates.sample_assignments = 8;
  opts.probing.rounds = 1;
  opts.max_urls_per_form = 60;
  core::Surfacer surfacer(&f->web, nullptr, opts);
  auto result = surfacer.Surface(f->page_url, f->form, f->scripts);
  ASSERT_TRUE(result.ok());
  index::InvertedIndex index;
  auto indexed = core::IndexSurfacedUrls(&f->web, &index, result->urls);
  ASSERT_TRUE(indexed.ok());
  EXPECT_LE(*indexed, result->urls.size());
  // Everything indexed is a real page, not an error body.
  for (size_t d = 0; d < index.num_docs(); ++d) {
    EXPECT_GT(index.doc(static_cast<index::DocId>(d)).length, 0u);
  }
}

TEST(FlakyServerTest, CrawlerCountsErrorsAndContinues) {
  net::SimulatedWeb web;
  // A healthy hub linking to a flaky site and a healthy site.
  auto hub = std::make_shared<synthweb::SurfaceSite>("hub.example.org");
  hub->AddRootLink("http://flaky.example.com/", "flaky");
  hub->AddRootLink("http://ok.example.com/", "ok");
  ASSERT_TRUE(web.Register(hub).ok());
  {
    Rng rng(5);
    synthweb::SiteGenOptions gen;
    gen.num_rows = 50;
    gen.force_get = true;
    auto site = std::make_shared<synthweb::DeepWebSite>(
        synthweb::GenerateSite(synthweb::Domain::kBooks,
                               "flaky.example.com", &rng, gen));
    net::FlakyOptions fopts;
    fopts.error_probability = 1.0;  // always down
    ASSERT_TRUE(web.Register(std::make_shared<net::FlakyServer>(
                                 site, fopts))
                    .ok());
  }
  {
    Rng rng(6);
    synthweb::SiteGenOptions gen;
    gen.num_rows = 50;
    gen.force_get = true;
    auto site = std::make_shared<synthweb::DeepWebSite>(
        synthweb::GenerateSite(synthweb::Domain::kJobs, "ok.example.com",
                               &rng, gen));
    ASSERT_TRUE(web.Register(site).ok());
  }
  index::InvertedIndex index;
  crawler::Crawler crawler(&web, &index, {});
  ASSERT_TRUE(crawler.Crawl({"http://hub.example.org/"}).ok());
  EXPECT_GT(crawler.stats().fetch_errors, 0u);
  // The healthy site's form is still found.
  ASSERT_EQ(crawler.forms().size(), 1u);
  EXPECT_EQ(crawler.forms()[0].page_url.host(), "ok.example.com");
}

// --- Coordinator-level failure injection (the serving layer). ---

TEST(CoordinatorFailureTest, DroppedRequestsAreTimedOutAndRetried) {
  remote::LoopbackTransport loopback(2, 2, {});
  remote::FlakyTransportOptions faults;
  faults.drop_request_probability = 0.4;  // heavy loss; every drop must
                                          // be detected by deadline
  faults.seed = 11;
  remote::FlakyTransport flaky(&loopback, faults);

  remote::CoordinatorOptions copts;
  copts.call_timeout_ms = 5.0;  // fast deadline so the test stays quick
  copts.max_attempts = 20;      // drops are transient: keep rotating
  copts.ingest_max_attempts = 30;
  remote::Coordinator coordinator(&flaky, copts);

  ASSERT_TRUE(coordinator
                  .AddDocument("http://a.example.com/1", "t",
                               "alpha beta gamma", false, "a.example.com")
                  .ok());
  ASSERT_TRUE(coordinator
                  .AddDocument("http://b.example.com/2", "t",
                               "alpha delta epsilon", false, "b.example.com")
                  .ok());

  for (int i = 0; i < 30; ++i) {
    auto hits = coordinator.Search("alpha", 10);
    ASSERT_EQ(hits.size(), 2u) << "query " << i << " lost documents";
  }
  auto stats = coordinator.stats();
  EXPECT_GT(stats.timeouts, 0u)
      << "40% request drops must have tripped per-attempt deadlines";
  EXPECT_EQ(stats.partial_results, 0u)
      << "with a generous attempt budget, drops never degrade results";
  EXPECT_GT(flaky.stats().request_drops, 0u);
}

TEST(CoordinatorFailureTest, DeadReplicaGroupYieldsPartialResultsNotCrash) {
  remote::LoopbackTransport loopback(2, 1, {});
  remote::FlakyTransport flaky(&loopback, {});
  remote::CoordinatorOptions copts;
  copts.call_timeout_ms = 10.0;
  copts.max_attempts = 2;
  remote::Coordinator coordinator(&flaky, copts);

  // Two docs on different shards (URLs chosen to hash apart at 2
  // shards; the ASSERT keeps the fixture honest).
  std::string url_a = "http://a.example.com/1";
  std::string url_b = "http://b.example.com/p1";
  ASSERT_NE(coordinator.ShardForUrl(url_a), coordinator.ShardForUrl(url_b));
  ASSERT_TRUE(coordinator
                  .AddDocument(url_a, "t", "alpha beta gamma", false,
                               "a.example.com")
                  .ok());
  ASSERT_TRUE(coordinator
                  .AddDocument(url_b, "t", "alpha delta epsilon", false,
                               "b.example.com")
                  .ok());
  ASSERT_EQ(coordinator.Search("alpha", 10).size(), 2u);

  // The whole replica group of one shard dies (replication factor 1:
  // nothing to fail over to). Queries degrade to the surviving shard.
  size_t dead_shard = coordinator.ShardForUrl(url_a);
  flaky.Kill(dead_shard, 0);
  auto hits = coordinator.Search("alpha", 10);
  ASSERT_EQ(hits.size(), 1u)
      << "the reachable shard must still be served";
  EXPECT_EQ(coordinator.doc(hits[0].doc).url, url_b);
  auto stats = coordinator.stats();
  EXPECT_GT(stats.partial_results, 0u);
  EXPECT_GT(stats.failed_shard_calls, 0u);

  // The shard comes back (a restart that kept its disk): queries heal.
  flaky.Revive(dead_shard, 0);
  ASSERT_EQ(coordinator.Search("alpha", 10).size(), 2u);
}

// The partial-result rule (coordinator.h): a degraded answer scores with
// full-corpus statistics, so it is the healthy ranking restricted to the
// reachable shards' documents, first k — same ids, same score bits.
TEST(CoordinatorFailureTest, PartialResultsAreTheHealthyRankingFiltered) {
  synthweb::CorpusOptions corpus_opts;
  corpus_opts.num_deep_sites = 4;
  corpus_opts.num_surface_sites = 2;
  corpus_opts.min_rows = 15;
  corpus_opts.max_rows = 40;
  corpus_opts.seed = 31;
  const auto corpus = synthweb::BuildCorpus(corpus_opts);
  const auto docs = synthweb::EntityDocuments(corpus);
  index::IndexOptions exhaustive;
  exhaustive.enable_pruning = false;
  index::InvertedIndex single(exhaustive);
  ASSERT_TRUE(single.InsertBatch(docs).ok());

  remote::LoopbackTransport loopback(3, 2, {});
  remote::FlakyTransport flaky(&loopback, {});
  remote::CoordinatorOptions copts;
  copts.call_timeout_ms = 10.0;
  copts.max_attempts = 2;
  remote::Coordinator coordinator(&flaky, copts);
  ASSERT_TRUE(coordinator.InsertBatch(docs).ok());

  // The whole replica group of one shard dies after ingest.
  const size_t dead_shard = 1;
  flaky.Kill(dead_shard, 0);
  flaky.Kill(dead_shard, 1);

  querylog::QueryStreamOptions qopts;
  qopts.seed = 2026;
  querylog::QueryStream stream(&corpus, qopts);
  size_t queries_losing_hits = 0;
  for (int q = 0; q < 60; ++q) {
    const std::string query = stream.Next().text;
    std::vector<index::SearchHit> expected;
    bool lost = false;
    for (const auto& hit : single.Search(query, single.num_docs())) {
      if (coordinator.ShardForUrl(single.doc_ref(hit.doc).url) ==
          dead_shard) {
        lost = true;
        continue;
      }
      if (expected.size() < 10) expected.push_back(hit);
    }
    if (lost) ++queries_losing_hits;
    testing_support::ExpectSameHits(
        expected, coordinator.Search(query, 10),
        "query \"" + query + "\" with shard 1 dead");
  }
  EXPECT_GT(queries_losing_hits, 0u)
      << "the dead group must hold documents matching the queries";
  EXPECT_GT(coordinator.stats().partial_results, 0u);
}

TEST(CoordinatorFailureTest, IngestWithAllReplicasDeadCommitsThenHeals) {
  remote::LoopbackTransport loopback(2, 2, {});
  remote::FlakyTransport flaky(&loopback, {});
  remote::CoordinatorOptions copts;
  copts.call_timeout_ms = 5.0;
  copts.ingest_max_attempts = 2;
  remote::Coordinator coordinator(&flaky, copts);
  flaky.SetReviveListener([&coordinator](size_t s, size_t r) {
    coordinator.RequestCatchUp(s, r);
  });

  std::string url = "http://a.example.com/1";
  size_t shard = coordinator.ShardForUrl(url);
  flaky.Kill(shard, 0);
  flaky.Kill(shard, 1);
  // Exactly-once ingest: the batch is staged in the coordinator's WAL
  // and committed before dispatch, so the caller's write lands even
  // with every replica of the shard dead — the unreached replicas
  // become stragglers for the catch-up worker, not a rollback.
  auto added = coordinator.AddDocument(url, "t", "alpha", false,
                                       "a.example.com");
  ASSERT_TRUE(added.ok()) << added.status();
  EXPECT_EQ(coordinator.num_docs(), 1u);
  EXPECT_GT(coordinator.stats().ingest_stragglers, 0u);
  // Until a replica of that shard catches up, queries degrade to the
  // reachable shards (no replica may serve a corpus it doesn't have).
  EXPECT_TRUE(coordinator.Search("alpha", 10).empty());

  // Revive: the listener feeds the rejoin machinery. Both replicas
  // missed the batch, so there is no currency-holding peer to fetch
  // from — this exercises the coordinator-WAL fallback.
  flaky.Revive(shard, 0);
  flaky.Revive(shard, 1);
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/10000.0));
  EXPECT_EQ(coordinator.Search("alpha", 10).size(), 1u);
  auto stats = coordinator.stats();
  EXPECT_GE(stats.batches_replayed, 1u);
  EXPECT_GE(stats.replicas_rejoined, 1u);

  // The committed dedup state survived the outage: re-adding the same
  // URL is a no-op, not a duplicate.
  auto again = coordinator.AddDocument(url, "t", "alpha", false,
                                       "a.example.com");
  ASSERT_TRUE(again.ok()) << again.status();
  EXPECT_EQ(coordinator.num_docs(), 1u);
  EXPECT_EQ(coordinator.Search("alpha", 10).size(), 1u);
}

// --- FlakyTransport lifetime and chaos-timing edges (the fabric the
// traffic harness's chaos schedule drives). ---

/// Inner transport that parks every request so the test controls
/// exactly when (and whether) a response comes back.
class ManualTransport : public remote::Transport {
 public:
  void Call(size_t shard, size_t replica, std::string request,
            Callback done, CancelToken cancelled = nullptr) override {
    (void)shard;
    (void)replica;
    (void)cancelled;
    std::lock_guard<std::mutex> lock(mu_);
    pending_.emplace_back(std::move(request), std::move(done));
  }
  size_t num_shards() const override { return 1; }
  size_t num_replicas() const override { return 1; }

  size_t pending_count() const {
    std::lock_guard<std::mutex> lock(mu_);
    return pending_.size();
  }
  Callback take(size_t i) {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(pending_[i].second);
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<std::string, Callback>> pending_;
};

TEST(FlakyTransportTest, LateCallbackAfterDestructionIsDiscarded) {
  ManualTransport inner;
  std::atomic<int> invoked{0};
  remote::Transport::Callback late;
  {
    remote::FlakyTransport flaky(&inner, {});
    // A slow replica: the response will be routed through the delayed
    // delivery queue rather than handed back inline.
    flaky.SetReplicaDelay(0, 0, 5.0);
    flaky.Call(0, 0, "req", [&](Result<std::string>) { ++invoked; });
    ASSERT_EQ(inner.pending_count(), 1u);
    late = inner.take(0);
    // The transport dies with the server's response still outstanding.
  }
  // The server finally answers, *after* the FlakyTransport object is
  // gone. The wrapper callback co-owns the transport's core, so this
  // must touch valid memory — and the core is stopping, so the delayed
  // delivery is dropped rather than resurrected.
  late(std::string("response"));
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_EQ(invoked.load(), 0)
      << "a response completing after teardown must be discarded";
}

TEST(FlakyTransportTest, DelayedDeliveryPendingAtDestructionIsDropped) {
  ManualTransport inner;
  std::atomic<int> invoked{0};
  {
    remote::FlakyTransport flaky(&inner, {});
    flaky.SetReplicaDelay(0, 0, 50.0);
    flaky.Call(0, 0, "req", [&](Result<std::string>) { ++invoked; });
    ASSERT_EQ(inner.pending_count(), 1u);
    // The server answers promptly; the 50ms delay parks the delivery in
    // the transport's timer queue...
    inner.take(0)(std::string("response"));
    // ...and the transport is destroyed before it comes due.
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  EXPECT_EQ(invoked.load(), 0)
      << "pending delayed deliveries must die with the transport";
}

TEST(FlakyTransportTest, KillAndReviveDuringInFlightHedgedRequests) {
  remote::LoopbackTransport loopback(1, 2, {});
  remote::FlakyTransport flaky(&loopback, {});
  remote::CoordinatorOptions copts;
  copts.hedge_min_ms = 0.2;
  copts.hedge_max_ms = 1.0;  // hedge well before the injected delay
  remote::Coordinator coordinator(&flaky, copts);
  ASSERT_TRUE(coordinator
                  .AddDocument("http://a.example.com/1", "t",
                               "alpha beta gamma", false, "a.example.com")
                  .ok());
  ASSERT_TRUE(coordinator
                  .AddDocument("http://b.example.com/2", "t",
                               "alpha delta epsilon", false, "b.example.com")
                  .ok());
  // Both replicas answer late, so every query has hedged attempts in
  // flight when the kill lands mid-call.
  flaky.SetReplicaDelay(0, 0, 10.0);
  flaky.SetReplicaDelay(0, 1, 10.0);

  for (int i = 0; i < 10; ++i) {
    std::vector<index::SearchHit> hits;
    std::thread searcher(
        [&] { hits = coordinator.Search("alpha", 10); });
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    flaky.Kill(0, 0);
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    flaky.Revive(0, 0);
    searcher.join();
    ASSERT_EQ(hits.size(), 2u) << "iteration " << i;
  }
  auto stats = coordinator.stats();
  EXPECT_GT(stats.hedges, 0u)
      << "10ms-slow replicas under a 1ms hedge cap must fire hedges";
  EXPECT_EQ(stats.partial_results, 0u)
      << "one live replica always remained; no query may degrade";
}

TEST(FlakyTransportTest, ReviveThenServeIdentically) {
  // The reference every configuration must match, byte for byte.
  std::vector<index::Document> docs;
  for (int i = 0; i < 12; ++i) {
    index::Document d;
    d.url = "http://h" + std::to_string(i) + ".example.com/p";
    d.title = "title " + std::to_string(i);
    d.body = "alpha common term" + std::to_string(i % 5) + " payload " +
             std::to_string(i);
    d.source_host = "h" + std::to_string(i) + ".example.com";
    docs.push_back(d);
  }
  index::InvertedIndex reference;
  ASSERT_TRUE(reference.InsertBatch(docs).ok());
  const std::vector<std::string> queries = {"alpha", "common term0",
                                            "payload term3", "alpha payload"};

  remote::LoopbackTransport loopback(2, 2, {});
  remote::FlakyTransport flaky(&loopback, {});
  remote::Coordinator coordinator(&flaky, {});
  ASSERT_TRUE(coordinator.InsertBatch(docs).ok());

  auto expect_identical = [&](const std::string& context) {
    for (const auto& q : queries) {
      testing_support::ExpectSameHits(reference.Search(q, 10),
                                      coordinator.Search(q, 10),
                                      context + ": " + q);
    }
  };
  expect_identical("healthy fabric");

  // One replica of every shard dies; failover covers it without
  // changing a bit (replicas hold bit-identical indexes).
  flaky.Kill(0, 1);
  flaky.Kill(1, 0);
  expect_identical("one replica down per shard");
  EXPECT_GT(flaky.stats().dead_rejections, 0u)
      << "the killed replicas must actually have been hit";

  // Revive: the healed fabric keeps serving identically — whether the
  // coordinator routes to the revived replica or not is unobservable.
  flaky.Revive(0, 1);
  flaky.Revive(1, 0);
  expect_identical("after revive");
  EXPECT_EQ(coordinator.stats().partial_results, 0u);
}

TEST(FlakyServerTest, DeterministicInjection) {
  auto f1 = MakeFlaky(0.3, 0.0, 99);
  auto f2 = MakeFlaky(0.3, 0.0, 99);
  for (int i = 0; i < 50; ++i) {
    auto r1 = f1->web.Get("http://flaky.example.com/search?page=1");
    auto r2 = f2->web.Get("http://flaky.example.com/search?page=1");
    ASSERT_TRUE(r1.ok() && r2.ok());
    EXPECT_EQ(r1->status_code, r2->status_code);
  }
}

}  // namespace
}  // namespace deepsurf
