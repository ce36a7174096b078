// Tests for the distributed shard-serving subsystem (src/remote/): the
// wire format round-trips every message bit-for-bit; and the
// coordinator's ranked results are BYTE-IDENTICAL — score bits and
// tie-break order — to the in-process ShardedIndex and to a single
// exhaustive InvertedIndex over the same corpus, at every tested
// shard x replica count, through hedging, transport faults, killed
// replicas, and concurrent ingest. Distribution must not change a
// single result bit; these tests are where that promise is held down.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <map>
#include <cstring>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "index/analyzer.h"
#include "index/inverted_index.h"
#include "index/sharded_index.h"
#include "querylog/query_stream.h"
#include "remote/coordinator.h"
#include "remote/shard_server.h"
#include "remote/transport.h"
#include "remote/wire.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"
#include "test_support.h"
#include "util/hash.h"

namespace deepsurf {
namespace remote {
namespace {

using testing_support::ExpectSameHits;

// Every query in this suite runs fully traced (1-in-1 sampling, see
// test_support.h): byte identity must hold with tracing enabled.
[[maybe_unused]] obs::Tracer* const kTracingInstalled =
    testing_support::InstallTracingEveryQuery();

// --- Shared corpus fixtures (synthweb::EntityDocuments is the shared
// corpus-to-documents conversion). ---

synthweb::WebCorpus TestCorpus() {
  synthweb::CorpusOptions opts;
  opts.num_deep_sites = 6;
  opts.num_surface_sites = 3;
  opts.min_rows = 15;
  opts.max_rows = 60;
  opts.seed = 77;
  return synthweb::BuildCorpus(opts);
}

std::vector<std::string> StreamQueries(const synthweb::WebCorpus& corpus,
                                       size_t n) {
  querylog::QueryStreamOptions qopts;
  qopts.seed = 2026;
  querylog::QueryStream stream(&corpus, qopts);
  std::vector<std::string> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) queries.push_back(stream.Next().text);
  return queries;
}

index::IndexOptions ExhaustiveOptions() {
  index::IndexOptions opts;
  opts.enable_pruning = false;
  return opts;
}

// --- Wire format. ---

TEST(WireTest, SearchRequestRoundTripsExactly) {
  SearchRequest msg;
  msg.terms = {"honda", "civic", "", "honda"};  // empty + repeated terms
  msg.k = 10;
  msg.stats.num_docs = 123456.0;
  msg.stats.total_length = 9.87654321e12;
  msg.stats.term_df = {3, 0, 17, 3};
  auto decoded = DecodeSearchRequest(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->terms, msg.terms);
  EXPECT_EQ(decoded->k, msg.k);
  EXPECT_EQ(std::memcmp(&decoded->stats.num_docs, &msg.stats.num_docs,
                        sizeof(double)),
            0);
  EXPECT_EQ(std::memcmp(&decoded->stats.total_length, &msg.stats.total_length,
                        sizeof(double)),
            0);
  EXPECT_EQ(decoded->stats.term_df, msg.stats.term_df);
}

TEST(WireTest, DoublesRoundTripAtTheBitLevel) {
  // The serving contract is byte identity, so the wire must round-trip
  // every IEEE-754 double exactly — including the values text
  // formatting mangles.
  const double nasty[] = {0.0,
                          -0.0,
                          std::numeric_limits<double>::denorm_min(),
                          -std::numeric_limits<double>::denorm_min(),
                          std::numeric_limits<double>::min(),
                          std::numeric_limits<double>::max(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity(),
                          std::numeric_limits<double>::quiet_NaN(),
                          0.1 + 0.2,
                          1.0 / 3.0};
  SearchResponse msg;
  for (size_t i = 0; i < sizeof(nasty) / sizeof(nasty[0]); ++i) {
    msg.hits.push_back(
        index::SearchHit{static_cast<index::DocId>(i), nasty[i]});
  }
  auto decoded = DecodeSearchResponse(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_EQ(decoded->hits.size(), msg.hits.size());
  for (size_t i = 0; i < msg.hits.size(); ++i) {
    EXPECT_EQ(decoded->hits[i].doc, msg.hits[i].doc);
    EXPECT_EQ(std::memcmp(&decoded->hits[i].score, &msg.hits[i].score,
                          sizeof(double)),
              0)
        << "double " << i << " did not round-trip bit-exactly";
  }
}

TEST(WireTest, IngestRequestRoundTrips) {
  IngestRequest msg;
  msg.seq = 42;
  index::Document d;
  d.url = "http://site.example.com/r?q=a&b=c";
  d.title = "a \"title\" with bytes \x01\x02";
  d.body = std::string("body with an embedded \0 NUL", 27);
  d.is_deep_web = true;
  d.source_host = "site.example.com";
  msg.docs.push_back(d);
  msg.docs.push_back(index::Document{});  // all-empty document
  auto decoded = DecodeIngestRequest(Encode(msg));
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  EXPECT_EQ(decoded->seq, 42u);
  ASSERT_EQ(decoded->docs.size(), 2u);
  EXPECT_EQ(decoded->docs[0].url, d.url);
  EXPECT_EQ(decoded->docs[0].title, d.title);
  EXPECT_EQ(decoded->docs[0].body, d.body);
  EXPECT_EQ(decoded->docs[0].is_deep_web, true);
  EXPECT_EQ(decoded->docs[0].source_host, d.source_host);
  EXPECT_EQ(decoded->docs[1].url, "");
}

TEST(WireTest, HealthRoundTrips) {
  HealthRequest plain;
  auto hp = DecodeHealthRequest(Encode(plain));
  ASSERT_TRUE(hp.ok());
  EXPECT_FALSE(hp->include_memory);
  HealthRequest with_memory;
  with_memory.include_memory = true;
  auto hm = DecodeHealthRequest(Encode(with_memory));
  ASSERT_TRUE(hm.ok());
  EXPECT_TRUE(hm->include_memory);

  HealthResponse health;
  health.num_docs = 9;
  health.epoch = 9;
  health.last_applied_seq = 3;
  health.memory.posting_doc_raw_bytes = 1234;
  health.memory.posting_doc_packed_bytes = 870;
  health.memory.posting_weight_bytes = 4321;
  health.memory.posting_block_bytes = 96;
  health.memory.dictionary_bytes = 555;
  health.memory.norm_cache_bytes = 44;
  health.memory.decode_cache_bytes = 66;
  health.memory.num_postings = 777;
  health.search.queries = 4242;
  health.search.blocks_decoded = 31;
  health.search.blocks_skipped = 17;
  health.search.decode_cache_hits = 5;
  auto h = DecodeHealthResponse(Encode(health));
  ASSERT_TRUE(h.ok());
  EXPECT_EQ(h->num_docs, 9u);
  EXPECT_EQ(h->last_applied_seq, 3u);
  EXPECT_EQ(h->memory.posting_doc_raw_bytes, 1234u);
  EXPECT_EQ(h->memory.posting_doc_packed_bytes, 870u);
  EXPECT_EQ(h->memory.posting_doc_bytes(), 1234u + 870u);
  EXPECT_EQ(h->memory.posting_weight_bytes, 4321u);
  EXPECT_EQ(h->memory.posting_block_bytes, 96u);
  EXPECT_EQ(h->memory.dictionary_bytes, 555u);
  EXPECT_EQ(h->memory.norm_cache_bytes, 44u);
  EXPECT_EQ(h->memory.decode_cache_bytes, 66u);
  EXPECT_EQ(h->memory.num_postings, 777u);
  EXPECT_EQ(h->search.queries, 4242u);
  EXPECT_EQ(h->search.blocks_decoded, 31u);
  EXPECT_EQ(h->search.blocks_skipped, 17u);
  EXPECT_EQ(h->search.decode_cache_hits, 5u);
}

TEST(CoordinatorTest, SearchStatsAreAFullMonotoneCensus) {
  LoopbackTransport transport(2, 2, {});
  Coordinator coordinator(&transport, {});
  ASSERT_TRUE(coordinator
                  .AddDocument("http://a.example.com/1", "t",
                               "alpha beta gamma", false, "a.example.com")
                  .ok());
  ASSERT_TRUE(coordinator
                  .AddDocument("http://b.example.com/p1", "t",
                               "alpha delta epsilon", false, "b.example.com")
                  .ok());
  EXPECT_EQ(coordinator.search_stats().queries, 0u);
  for (int i = 0; i < 8; ++i) (void)coordinator.Search("alpha", 10);
  // Each coordinator query fans one search out to every shard, however
  // rotation spreads it across that shard's replicas; the census probes
  // every replica and sums, so nothing is lost to sampling. Hedging can
  // only add extra replica searches on top, hence GE, not EQ.
  auto st = coordinator.search_stats();
  EXPECT_GE(st.queries, 16u);
  // Monotone: repeated snapshots never go backwards (per-replica
  // max-merged cache), which is what lets callers take plain deltas.
  uint64_t last = st.queries;
  for (int i = 0; i < 4; ++i) {
    (void)coordinator.Search("alpha delta", 10);
    auto now = coordinator.search_stats();
    EXPECT_GE(now.queries, last);
    EXPECT_GE(now.blocks_decoded + now.decode_cache_hits, 0u);
    last = now.queries;
  }
}

TEST(WireTest, MalformedFramesAreRejectedNotUB) {
  EXPECT_FALSE(PeekType("").ok());
  EXPECT_FALSE(PeekType("\x7f").ok());
  // Truncation at every prefix length must fail cleanly, never crash.
  SearchRequest msg;
  msg.terms = {"alpha", "beta"};
  msg.k = 5;
  msg.stats.term_df = {1, 2};
  std::string frame = Encode(msg);
  for (size_t len = 0; len < frame.size(); ++len) {
    EXPECT_FALSE(DecodeSearchRequest(frame.substr(0, len)).ok())
        << "prefix of length " << len << " decoded as valid";
  }
  EXPECT_TRUE(DecodeSearchRequest(frame).ok());
  // Trailing garbage is also malformed (frames are exact).
  EXPECT_FALSE(DecodeSearchRequest(frame + "x").ok());
  // A frame of the wrong type is rejected by the typed decoder.
  EXPECT_FALSE(DecodeIngestRequest(frame).ok());
  // The retired stats-round types stay rejected, whatever follows them.
  EXPECT_FALSE(PeekType(std::string(1, '\x03')).ok());
  EXPECT_FALSE(PeekType(std::string(1, '\x04') + frame.substr(1)).ok());
  // A hostile vector count larger than the buffer must not allocate.
  std::string hostile;
  hostile.push_back(static_cast<char>(MessageType::kSearchResponse));
  for (int i = 0; i < 4; ++i) hostile.push_back('\xff');  // count = 2^32-1
  EXPECT_FALSE(DecodeSearchResponse(hostile).ok());
  // An ingest ack whose parallel per-doc vectors disagree is malformed.
  IngestResponse short_ack;
  short_ack.seq = 1;
  short_ack.local_ids = {0, 1};
  short_ack.newly_added = {1};  // one entry short
  short_ack.lengths = {3, 3};
  EXPECT_FALSE(DecodeIngestResponse(Encode(short_ack)).ok());
}

TEST(ShardServerTest, RejectsSearchWithMismatchedStatsArity) {
  ShardServer server(ShardServerOptions{});
  SearchRequest req;
  req.terms = {"alpha", "beta"};
  req.k = 10;
  req.stats.num_docs = 1.0;
  req.stats.total_length = 3.0;
  req.stats.term_df = {1};  // arity 1 for 2 terms: wire-valid, semantically bad
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<std::string> result{Status::Unavailable("pending")};
  server.Enqueue(Encode(req), [&](Result<std::string> r) {
    std::lock_guard<std::mutex> lock(mu);
    result = std::move(r);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  ASSERT_FALSE(result.ok()) << "mismatched arity must be an error response";
  EXPECT_TRUE(result.status().IsInvalidArgument());
}

// --- ShardServer. ---

TEST(ShardServerTest, ServesSearchOverTheWire) {
  ShardServerOptions opts;
  opts.index = ExhaustiveOptions();
  ShardServer server(opts);

  IngestRequest ingest;
  ingest.seq = 1;
  ingest.docs.push_back(
      index::Document{"u1", "t", "alpha beta gamma", false, "h"});
  ingest.docs.push_back(
      index::Document{"u2", "t", "alpha alpha delta", true, "h"});

  struct Waiter {
    std::mutex mu;
    std::condition_variable cv;
    bool done = false;
    Result<std::string> result{Status::Unavailable("pending")};
    void Done(Result<std::string> r) {
      std::lock_guard<std::mutex> lock(mu);
      result = std::move(r);
      done = true;
      cv.notify_one();
    }
    Result<std::string> Wait() {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return done; });
      done = false;
      return result;
    }
  } waiter;

  server.Enqueue(Encode(ingest), [&](Result<std::string> r) {
    waiter.Done(std::move(r));
  });
  auto ingest_resp = waiter.Wait();
  ASSERT_TRUE(ingest_resp.ok()) << ingest_resp.status();
  auto decoded_ingest = DecodeIngestResponse(*ingest_resp);
  ASSERT_TRUE(decoded_ingest.ok());
  EXPECT_EQ(decoded_ingest->local_ids, (std::vector<uint32_t>{0, 1}));
  EXPECT_EQ(decoded_ingest->newly_added, (std::vector<uint8_t>{1, 1}));
  EXPECT_EQ(decoded_ingest->lengths, (std::vector<uint32_t>{3, 3}));

  // A frame of the retired stats-round type (3), shaped like the old
  // request (one term, "alpha"), is an error response, not a stats answer.
  std::string retired(1, static_cast<char>(MessageType::kStatsRequest));
  retired += std::string("\x01\x00\x00\x00\x05\x00\x00\x00" "alpha", 13);
  server.Enqueue(retired, [&](Result<std::string> r) {
    waiter.Done(std::move(r));
  });
  auto retired_resp = waiter.Wait();
  ASSERT_FALSE(retired_resp.ok());
  EXPECT_TRUE(retired_resp.status().IsInvalidArgument());

  SearchRequest search_req;
  search_req.terms = {"alpha"};
  search_req.k = 10;
  search_req.stats.num_docs = 2.0;
  search_req.stats.total_length = 6.0;
  search_req.stats.term_df = {2};
  server.Enqueue(Encode(search_req), [&](Result<std::string> r) {
    waiter.Done(std::move(r));
  });
  auto search_resp = waiter.Wait();
  ASSERT_TRUE(search_resp.ok());
  auto decoded_search = DecodeSearchResponse(*search_resp);
  ASSERT_TRUE(decoded_search.ok());
  ASSERT_EQ(decoded_search->hits.size(), 2u);
  // Doc 1 has tf(alpha)=2: it must outrank doc 0, exactly as the local
  // index would say.
  index::InvertedIndex reference(ExhaustiveOptions());
  for (const auto& d : ingest.docs) {
    ASSERT_TRUE(reference
                    .AddDocument(d.url, d.title, d.body, d.is_deep_web,
                                 d.source_host)
                    .ok());
  }
  ExpectSameHits(reference.Search("alpha", 10), decoded_search->hits,
                 "shard server over the wire");

  auto stats = server.stats();
  EXPECT_EQ(stats.ingest_batches, 1u);
  EXPECT_EQ(stats.searches, 1u);
  EXPECT_EQ(stats.decode_errors, 1u);
  EXPECT_EQ(stats.served, 3u);
}

TEST(ShardServerTest, IngestIsIdempotentBySequenceNumber) {
  ShardServer server(ShardServerOptions{});
  IngestRequest ingest;
  ingest.seq = 1;
  ingest.docs.push_back(index::Document{"u1", "t", "alpha beta", false, "h"});

  std::mutex mu;
  std::condition_variable cv;
  size_t done = 0;
  std::vector<Result<std::string>> results;
  auto wait_for = [&](size_t n) {
    std::unique_lock<std::mutex> lock(mu);
    cv.wait(lock, [&] { return done == n; });
  };
  auto collect = [&](Result<std::string> r) {
    std::lock_guard<std::mutex> lock(mu);
    results.push_back(std::move(r));
    ++done;
    cv.notify_all();
  };

  // The same batch three times (a coordinator retrying lost responses).
  server.Enqueue(Encode(ingest), collect);
  wait_for(1);
  server.Enqueue(Encode(ingest), collect);
  wait_for(2);
  server.Enqueue(Encode(ingest), collect);
  wait_for(3);

  EXPECT_EQ(server.index().num_docs(), 1u) << "re-sent batch re-applied";
  ASSERT_TRUE(results[0].ok());
  for (size_t i = 1; i < 3; ++i) {
    ASSERT_TRUE(results[i].ok());
    EXPECT_EQ(*results[i], *results[0]) << "replayed response must be "
                                           "byte-identical to the original";
  }
  EXPECT_EQ(server.stats().ingest_batches, 1u);
  EXPECT_EQ(server.stats().ingest_replays, 2u);

  // Out-of-sequence (a skipped batch) is refused: the replica knows it
  // is stale and must not pretend otherwise.
  IngestRequest skipped;
  skipped.seq = 5;
  skipped.docs.push_back(index::Document{"u9", "t", "gamma", false, "h"});
  server.Enqueue(Encode(skipped), collect);
  wait_for(4);
  ASSERT_FALSE(results[3].ok());
  EXPECT_TRUE(results[3].status().IsFailedPrecondition());
}

TEST(ShardServerTest, BoundedQueueRejectsWithBackpressure) {
  ShardServerOptions opts;
  opts.num_workers = 1;
  opts.max_queue = 2;
  ShardServer server(opts);
  server.PauseForTesting();  // workers leave the queue untouched

  std::atomic<size_t> rejected{0};
  std::atomic<size_t> completed{0};
  auto done = [&](Result<std::string> r) {
    if (!r.ok() && r.status().IsResourceExhausted()) {
      rejected.fetch_add(1);
    } else {
      completed.fetch_add(1);
    }
  };
  const std::string frame = Encode(HealthRequest{});
  for (int i = 0; i < 5; ++i) server.Enqueue(frame, done);
  EXPECT_EQ(rejected.load(), 3u) << "queue holds 2; the rest must bounce";

  server.ResumeForTesting();
  // The two accepted requests drain and complete.
  for (int spin = 0; spin < 1000 && completed.load() < 2; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(completed.load(), 2u);
  EXPECT_EQ(server.stats().rejected, 3u);
}

// --- Coordinator equivalence: the heart of the contract. ---

struct ClusterParam {
  size_t shards;
  size_t replicas;
};

class RemoteEquivalenceTest
    : public ::testing::TestWithParam<ClusterParam> {};

TEST_P(RemoteEquivalenceTest, ByteIdenticalToShardedIndexAndSingleIndex) {
  const auto param = GetParam();
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);

  index::InvertedIndex single(ExhaustiveOptions());
  ASSERT_TRUE(single.InsertBatch(docs).ok());

  index::ShardedIndexOptions sopts;
  sopts.num_shards = param.shards;
  index::ShardedIndex sharded(sopts);
  ASSERT_TRUE(sharded.InsertBatch(docs).ok());

  ShardServerOptions server_opts;  // default options, pruning on — the
                                   // deployed configuration
  LoopbackTransport transport(param.shards, param.replicas, server_opts);
  Coordinator coordinator(&transport, {});
  ASSERT_TRUE(coordinator.InsertBatch(docs).ok());
  ASSERT_EQ(coordinator.num_docs(), single.num_docs());
  ASSERT_EQ(coordinator.ingest_epoch(), sharded.ingest_epoch());

  // Metadata mirror matches the in-process implementations.
  for (index::DocId id = 0; id < coordinator.num_docs(); id += 7) {
    EXPECT_EQ(coordinator.doc(id).url, sharded.doc(id).url);
    EXPECT_EQ(coordinator.doc(id).length, sharded.doc(id).length);
    EXPECT_EQ(coordinator.doc(id).content_hash, sharded.doc(id).content_hash);
    EXPECT_EQ(coordinator.doc_ref(id).url, single.doc_ref(id).url);
  }

  auto label = std::to_string(param.shards) + " shards x " +
               std::to_string(param.replicas) + " replicas";
  for (const auto& query : StreamQueries(corpus, 200)) {
    auto expected = single.Search(query, 10);
    ExpectSameHits(expected, coordinator.Search(query, 10),
                   label + " vs single index, query \"" + query + "\"");
    ExpectSameHits(sharded.Search(query, 10), coordinator.Search(query, 10),
                   label + " vs ShardedIndex, query \"" + query + "\"");
  }
  EXPECT_EQ(coordinator.stats().partial_results, 0u);
  EXPECT_EQ(coordinator.stats().failed_shard_calls, 0u);
}

TEST_P(RemoteEquivalenceTest, ByteIdenticalUnderTransportFaults) {
  const auto param = GetParam();
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);

  index::InvertedIndex single(ExhaustiveOptions());
  ASSERT_TRUE(single.InsertBatch(docs).ok());

  LoopbackTransport loopback(param.shards, param.replicas, {});
  FlakyTransportOptions faults;
  faults.fail_probability = 0.2;        // fast failures: failover path
  faults.drop_request_probability = 0.02;   // timeouts: retry path
  faults.drop_response_probability = 0.02;  // ingest idempotence path
  faults.delay_probability = 0.05;      // latency spikes: hedging path
  faults.delay_ms = 2.0;
  faults.seed = 99;
  FlakyTransport flaky(&loopback, faults);

  CoordinatorOptions copts;
  copts.call_timeout_ms = 15.0;  // dropped requests churn fast
  copts.max_attempts = 12;       // generous budget: faults are transient
  copts.ingest_max_attempts = 16;
  Coordinator coordinator(&flaky, copts);
  // Ingest in small batches so replicated-ingest retries and response
  // drops get exercised many times.
  std::vector<index::Document> batch;
  for (const auto& d : docs) {
    batch.push_back(d);
    if (batch.size() == 64) {
      ASSERT_TRUE(coordinator.InsertBatch(batch).ok());
      batch.clear();
    }
  }
  if (!batch.empty()) ASSERT_TRUE(coordinator.InsertBatch(batch).ok());
  ASSERT_EQ(coordinator.num_docs(), single.num_docs());

  auto label = std::to_string(param.shards) + "x" +
               std::to_string(param.replicas) + " flaky";
  for (const auto& query : StreamQueries(corpus, 60)) {
    ExpectSameHits(single.Search(query, 10), coordinator.Search(query, 10),
                   label + ", query \"" + query + "\"");
  }
  // The fault machinery actually fired.
  auto tstats = flaky.stats();
  EXPECT_GT(tstats.failures, 0u);
  auto cstats = coordinator.stats();
  EXPECT_GT(cstats.failovers + cstats.timeouts + cstats.hedges, 0u)
      << "faults at these rates must have forced recovery paths";
  EXPECT_EQ(cstats.partial_results, 0u)
      << "transient faults with a generous budget must never degrade "
         "results";
}

INSTANTIATE_TEST_SUITE_P(
    Clusters, RemoteEquivalenceTest,
    ::testing::Values(ClusterParam{1, 1}, ClusterParam{1, 2},
                      ClusterParam{3, 1}, ClusterParam{3, 2},
                      ClusterParam{3, 3}, ClusterParam{8, 2},
                      ClusterParam{8, 3}),
    [](const ::testing::TestParamInfo<ClusterParam>& info) {
      return std::to_string(info.param.shards) + "shards" +
             std::to_string(info.param.replicas) + "replicas";
    });

// The coordinator counts document frequencies at ingest instead of
// asking the shards, so this corpus aims at what that count can get
// wrong, which the synthweb fixtures reach only by chance: terms found
// only in titles (they still get postings), tokens repeated within one
// body or across a body and its title (a document counts once),
// suppressed duplicate bodies (their titles must not count), and an
// empty body. "headline", "scoop", "vacant" and "record" never occur in
// a body.
std::vector<index::Document> DfEdgeCorpus() {
  const std::vector<std::string> vocab = {"alpha", "beta",  "gamma",
                                          "delta", "omega", "zeta"};
  std::vector<index::Document> docs;
  for (size_t i = 0; i < 60; ++i) {
    index::Document d;
    d.url = "http://h" + std::to_string(i % 7) + ".example.com/p" +
            std::to_string(i);
    d.source_host = "h" + std::to_string(i % 7) + ".example.com";
    for (size_t w = 0; w < 2 + i % 5; ++w) {
      d.body += vocab[(i + w * w) % vocab.size()] + " ";
    }
    if (i % 3 == 0) d.body += "zeta zeta zeta";
    d.title = "record " + std::to_string(i);
    if (i % 4 == 0) d.title += " headline";
    if (i % 6 == 1) d.title += " " + vocab[i % vocab.size()] + " zeta";
    if (i % 10 == 9) {
      d.body = docs.back().body;  // suppressed: only its title differs
      d.title += " scoop headline";
    }
    docs.push_back(std::move(d));
  }
  docs[20].title += " scoop";
  docs[33].body.clear();
  docs[33].title = "vacant headline";
  docs[47].body.clear();  // a second empty body: a suppressed duplicate
  docs[47].title = "vacant scoop";
  return docs;
}

TEST(RemoteServingTest, IngestTimeDfMatchesExhaustiveIndex) {
  const auto docs = DfEdgeCorpus();
  index::InvertedIndex single(ExhaustiveOptions());
  ASSERT_TRUE(single.InsertBatch(docs).ok());
  ASSERT_LT(single.num_docs(), docs.size()) << "duplicates must be suppressed";
  ASSERT_GT(single.DocFrequency("headline"), 1u);
  ASSERT_EQ(single.DocFrequency("scoop"), 1u);

  const std::vector<std::string> queries = {
      "headline",         "scoop",           "vacant",
      "record",           "zeta",            "zeta zeta omega",
      "alpha alpha",      "headline alpha",  "scoop beta zeta",
      "record headline vacant gamma"};
  for (size_t shards : {1, 3, 8}) {
    const std::string label = std::to_string(shards) + " shards";
    LoopbackTransport transport(shards, 2, {});
    Coordinator coordinator(&transport, {});
    index::ShardedIndexOptions sopts;
    sopts.num_shards = shards;
    index::ShardedIndex sharded(sopts);
    ASSERT_TRUE(sharded.InsertBatch(docs).ok());
    // Several batches, with single AddDocument calls in between.
    ASSERT_TRUE(coordinator
                    .InsertBatch(std::vector<index::Document>(
                        docs.begin(), docs.begin() + 25))
                    .ok());
    for (size_t i = 25; i < 35; ++i) {
      const auto& d = docs[i];
      ASSERT_TRUE(coordinator
                      .AddDocument(d.url, d.title, d.body, d.is_deep_web,
                                   d.source_host)
                      .ok());
    }
    ASSERT_TRUE(coordinator
                    .InsertBatch(std::vector<index::Document>(
                        docs.begin() + 35, docs.begin() + 48))
                    .ok());
    ASSERT_TRUE(coordinator
                    .InsertBatch(std::vector<index::Document>(
                        docs.begin() + 48, docs.end()))
                    .ok());
    ASSERT_EQ(coordinator.num_docs(), single.num_docs()) << label;

    for (const auto& query : queries) {
      for (size_t k : {3, 100}) {
        const auto expected = single.Search(query, k);
        ASSERT_FALSE(expected.empty()) << "query \"" << query << "\"";
        const std::string context =
            label + ", k=" + std::to_string(k) + ", query \"" + query + "\"";
        ExpectSameHits(expected, coordinator.Search(query, k),
                       "coordinator, " + context);
        ExpectSameHits(expected, sharded.Search(query, k),
                       "ShardedIndex, " + context);
      }
    }
    EXPECT_EQ(coordinator.stats().partial_results, 0u) << label;
  }
}

TEST(RemoteServingTest, KilledReplicaNeverFailsAQuery) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);
  index::InvertedIndex single(ExhaustiveOptions());
  ASSERT_TRUE(single.InsertBatch(docs).ok());

  LoopbackTransport loopback(3, 2, {});
  FlakyTransport flaky(&loopback, {});  // no random faults, only kills
  Coordinator coordinator(&flaky, {});
  ASSERT_TRUE(coordinator.InsertBatch(docs).ok());

  // Kill one replica of every shard — after ingest, so the survivors
  // are complete.
  for (size_t s = 0; s < 3; ++s) flaky.Kill(s, 0);

  for (const auto& query : StreamQueries(corpus, 100)) {
    ExpectSameHits(single.Search(query, 10), coordinator.Search(query, 10),
                   "killed replica, query \"" + query + "\"");
  }
  auto stats = coordinator.stats();
  EXPECT_EQ(stats.partial_results, 0u) << "failover must cover the kill";
  EXPECT_GT(stats.failovers, 0u)
      << "queries routed to the dead replica must have failed over";
  EXPECT_GT(stats.replicas_dead, 0u)
      << "the killed replicas should be marked dead and skipped";
}

// Whether hedging works shows up as a count, not a latency: replica 0 of
// each shard answers 10 s late, far past the 200 ms per-attempt
// deadline. A call whose primary is the stalled replica either hedges
// to its peer within hedge_max_ms, or waits out the deadline and counts
// a timeout. No timing enters a verdict.
TEST(RemoteServingTest, HedgingAnswersBeforeAStalledReplicaTimesOut) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);
  index::InvertedIndex single(ExhaustiveOptions());
  ASSERT_TRUE(single.InsertBatch(docs).ok());

  for (bool hedging : {true, false}) {
    SCOPED_TRACE(hedging ? "hedging on" : "hedging off");
    LoopbackTransport loopback(2, 2, {});
    FlakyTransport flaky(&loopback, {});
    CoordinatorOptions copts;
    copts.hedging = hedging;
    copts.hedge_max_ms = 1.0;
    Coordinator coordinator(&flaky, copts);
    ASSERT_TRUE(coordinator.InsertBatch(docs).ok());
    for (size_t s = 0; s < 2; ++s) flaky.SetReplicaDelay(s, 0, 10000.0);

    // Without hedging, every other query waits out a deadline; a few
    // suffice for the control.
    for (const auto& query : StreamQueries(corpus, hedging ? 20 : 4)) {
      ExpectSameHits(single.Search(query, 10), coordinator.Search(query, 10),
                     "stalled replica, query \"" + query + "\"");
    }
    const CoordinatorStats stats = coordinator.stats();
    EXPECT_EQ(stats.partial_results, 0u);
    if (hedging) {
      EXPECT_EQ(stats.timeouts, 0u)
          << "a hedged call must be answered by the stalled replica's peer";
      EXPECT_GT(stats.hedge_wins, 0u);
    } else {
      EXPECT_GT(stats.timeouts, 0u)
          << "the control: without hedging, calls wait out the deadline";
    }
  }
}

TEST(RemoteServingTest, EachShardSpreadsSearchesOverItsReplicas) {
  // 2 shards x 2 replicas, where one rotation counter shared by every
  // shard handed a query's two shard calls consecutive values and so
  // pinned each shard to one replica.
  std::vector<index::Document> docs;
  for (int i = 0; i < 64; ++i) {
    docs.push_back(index::Document{
        "http://h" + std::to_string(i % 5) + ".example.com/p" +
            std::to_string(i),
        "t", "alpha beta word" + std::to_string(i), false,
        "h" + std::to_string(i % 5) + ".example.com"});
  }
  for (size_t fanout : {1, 4}) {
    SCOPED_TRACE("fanout_threads " + std::to_string(fanout));
    LoopbackTransport loopback(2, 2, {});
    CoordinatorOptions copts;
    copts.hedging = false;
    copts.fanout_threads = fanout;
    Coordinator coordinator(&loopback, copts);
    ASSERT_TRUE(coordinator.InsertBatch(docs).ok());
    for (int i = 0; i < 400; ++i) {
      (void)coordinator.Search("alpha word" + std::to_string(i % 64), 10);
    }
    for (size_t s = 0; s < 2; ++s) {
      const double r0 =
          static_cast<double>(loopback.server(s, 0).stats().searches);
      const double r1 =
          static_cast<double>(loopback.server(s, 1).stats().searches);
      ASSERT_GE(r0 + r1, 400.0) << "shard " << s;
      EXPECT_GE(r0 / (r0 + r1), 0.4) << "shard " << s;
      EXPECT_LE(r0 / (r0 + r1), 0.6) << "shard " << s;
    }
  }
}

TEST(RemoteServingTest, ReplicasStayBitIdenticalUnderResponseDrops) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);

  LoopbackTransport loopback(2, 3, {});
  FlakyTransportOptions faults;
  faults.drop_response_probability = 0.25;  // many lost ingest acks
  faults.seed = 7;
  FlakyTransport flaky(&loopback, faults);
  CoordinatorOptions copts;
  copts.call_timeout_ms = 10.0;
  copts.ingest_max_attempts = 30;  // drops are transient; keep retrying
  Coordinator coordinator(&flaky, copts);

  std::vector<index::Document> batch;
  for (const auto& d : docs) {
    batch.push_back(d);
    if (batch.size() == 32) {
      ASSERT_TRUE(coordinator.InsertBatch(batch).ok());
      batch.clear();
    }
  }
  if (!batch.empty()) ASSERT_TRUE(coordinator.InsertBatch(batch).ok());

  // Every replica of a shard must have applied exactly the same batches
  // exactly once — the idempotent-seq machinery under lost responses.
  for (size_t s = 0; s < 2; ++s) {
    const auto& r0 = loopback.server(s, 0).index();
    for (size_t r = 1; r < 3; ++r) {
      const auto& rr = loopback.server(s, r).index();
      ASSERT_EQ(rr.num_docs(), r0.num_docs())
          << "shard " << s << " replica " << r << " diverged";
      for (index::DocId id = 0; id < r0.num_docs(); ++id) {
        ASSERT_EQ(rr.doc_ref(id).url, r0.doc_ref(id).url);
        ASSERT_EQ(rr.doc_ref(id).content_hash, r0.doc_ref(id).content_hash);
      }
    }
    EXPECT_GT(loopback.server(s, 0).stats().ingest_replays +
                  loopback.server(s, 1).stats().ingest_replays +
                  loopback.server(s, 2).stats().ingest_replays,
              0u)
        << "response drops at 25% must have forced replays";
  }
}

TEST(RemoteServingTest, DuplicateSuppressionIsGlobalAcrossShards) {
  LoopbackTransport transport(8, 1, {});
  Coordinator coordinator(&transport, {});
  ASSERT_NE(coordinator.ShardForUrl("http://a.example.com/x"),
            coordinator.ShardForUrl("http://b.example.com/y"))
      << "fixture URLs must land on different shards";

  auto first = coordinator.AddDocument("http://a.example.com/x", "t",
                                       "shared body content", true,
                                       "a.example.com");
  auto second = coordinator.AddDocument("http://b.example.com/y", "t",
                                        "shared body content", true,
                                        "b.example.com");
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(coordinator.num_docs(), 1u);

  // InsertBatch reports suppression the way the in-process indexes do.
  LoopbackTransport transport2(8, 1, {});
  Coordinator fresh(&transport2, {});
  std::vector<bool> newly_added;
  auto added = fresh.InsertBatch(
      {index::Document{"http://a.example.com/x", "t", "shared body content",
                       true, "a.example.com"},
       index::Document{"http://b.example.com/y", "t", "shared body content",
                       true, "b.example.com"}},
      &newly_added);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 1u);
  EXPECT_EQ(newly_added, (std::vector<bool>{true, false}));
}

TEST(RemoteServingTest, EpochAdvancesOnlyWhenDocumentsEnter) {
  LoopbackTransport transport(2, 1, {});
  Coordinator coordinator(&transport, {});
  EXPECT_EQ(coordinator.ingest_epoch(), 0u);
  ASSERT_TRUE(
      coordinator.AddDocument("u1", "t", "body one", false, "h.com").ok());
  EXPECT_EQ(coordinator.ingest_epoch(), 1u);
  ASSERT_TRUE(
      coordinator.AddDocument("u2", "t", "body one", false, "h.com").ok());
  EXPECT_EQ(coordinator.ingest_epoch(), 1u)
      << "a suppressed duplicate must not invalidate caches";
  ASSERT_TRUE(
      coordinator.AddDocument("u3", "t", "body two", false, "h.com").ok());
  EXPECT_EQ(coordinator.ingest_epoch(), 2u);
}

TEST(RemoteServingTest, ProbeHealthSeesTheCluster) {
  LoopbackTransport loopback(2, 2, {});
  FlakyTransport flaky(&loopback, {});
  Coordinator coordinator(&flaky, {});
  ASSERT_TRUE(
      coordinator.AddDocument("u1", "t", "alpha beta", false, "h").ok());

  flaky.Kill(1, 1);
  auto probes = coordinator.ProbeHealth();
  ASSERT_EQ(probes.size(), 4u);
  const size_t home = coordinator.ShardForUrl("u1");
  size_t reachable = 0;
  for (const auto& p : probes) {
    if (p.reachable) {
      ++reachable;
      // Only the doc's home shard holds it; the other stays empty.
      EXPECT_EQ(p.health.num_docs, p.shard == home ? 1u : 0u)
          << "shard " << p.shard << " replica " << p.replica;
      EXPECT_EQ(p.health.last_applied_seq, p.shard == home ? 1u : 0u);
    } else {
      EXPECT_EQ(p.shard, 1u);
      EXPECT_EQ(p.replica, 1u);
    }
  }
  EXPECT_EQ(reachable, 3u);
}

TEST(RemoteServingTest, MemoryUsageSumsOneReplicaPerShard) {
  LoopbackTransport loopback(2, 2, {});
  Coordinator coordinator(&loopback, {});
  std::vector<index::Document> docs;
  for (int i = 0; i < 40; ++i) {
    docs.push_back(index::Document{
        "http://h" + std::to_string(i % 3) + ".com/p" + std::to_string(i),
        "t", "alpha beta gamma delta word" + std::to_string(i), false,
        "h" + std::to_string(i % 3) + ".com"});
  }
  ASSERT_TRUE(coordinator.InsertBatch(docs).ok());

  auto mem = coordinator.MemoryUsage();
  EXPECT_EQ(mem.num_postings, [&] {
    index::IndexMemoryUsage manual;
    for (size_t s = 0; s < 2; ++s) {
      manual.Add(loopback.server(s, 0).index().MemoryUsage());
    }
    return manual.num_postings;
  }());
  EXPECT_GT(mem.num_postings, 0u);
  EXPECT_GT(mem.posting_doc_bytes(), 0u);
  EXPECT_GT(mem.dictionary_bytes, 0u);
  // The logical corpus is counted once: replicas must not double it.
  index::IndexMemoryUsage one_replica_each;
  for (size_t s = 0; s < 2; ++s) {
    one_replica_each.Add(loopback.server(s, 0).index().MemoryUsage());
  }
  EXPECT_EQ(mem.posting_doc_bytes(), one_replica_each.posting_doc_bytes());
  EXPECT_EQ(mem.posting_weight_bytes, one_replica_each.posting_weight_bytes);
  EXPECT_EQ(mem.posting_block_bytes, one_replica_each.posting_block_bytes);
  EXPECT_EQ(mem.total_bytes() - mem.dictionary_bytes,
            one_replica_each.total_bytes() - one_replica_each.dictionary_bytes);
  // On top of the shards' dictionaries: the coordinator's term -> df map.
  EXPECT_GT(mem.dictionary_bytes, one_replica_each.dictionary_bytes);
}

// Serving through the engine: the distributed index slots under the
// cache exactly like the in-process one, including epoch invalidation
// driven by distributed ingest.
TEST(RemoteServingTest, ServesThroughEngineWithCacheAndInvalidation) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);
  index::InvertedIndex single(ExhaustiveOptions());

  LoopbackTransport transport(3, 2, {});
  Coordinator coordinator(&transport, {});
  serve::Engine engine(&coordinator);

  // First half of the corpus, then serve, then the second half lands.
  size_t half = docs.size() / 2;
  std::vector<index::Document> first(docs.begin(), docs.begin() + half);
  std::vector<index::Document> second(docs.begin() + half, docs.end());
  ASSERT_TRUE(coordinator.InsertBatch(first).ok());
  ASSERT_TRUE(single.InsertBatch(first).ok());

  auto queries = StreamQueries(corpus, 40);
  for (const auto& query : queries) {
    auto expected = single.Search(query, 10);
    ExpectSameHits(expected, engine.Search(query, 10).hits,
                   "engine cold, query \"" + query + "\"");
    auto repeat = engine.Search(query, 10);
    EXPECT_TRUE(repeat.from_cache);
    ExpectSameHits(expected, repeat.hits,
                   "engine cached, query \"" + query + "\"");
  }

  ASSERT_TRUE(coordinator.InsertBatch(second).ok());
  ASSERT_TRUE(single.InsertBatch(second).ok());
  for (const auto& query : queries) {
    auto served = engine.Search(query, 10);
    ExpectSameHits(single.Search(query, 10), served.hits,
                   "engine after distributed ingest, query \"" + query +
                       "\"");
  }
  EXPECT_GT(engine.stats().invalidations, 0u);
}

// The TSan target: queries (hedged, fanned out) racing replicated
// ingest. Results must be exact against an oracle built from whatever
// prefix of the ingest each query observed.
TEST(RemoteConcurrencyTest, ConcurrentIngestAndSearchStaysExact) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);
  auto queries = StreamQueries(corpus, 40);

  LoopbackTransport transport(3, 2, {});
  Coordinator coordinator(&transport, {});

  // Oracle: a single exhaustive index advanced batch by batch, with the
  // expected hits of every query snapshotted at every batch boundary.
  // Boundaries are keyed by ingest epoch (doc count), which suppressed
  // duplicates may advance by less than the batch size.
  constexpr size_t kBatch = 50;
  index::InvertedIndex oracle(ExhaustiveOptions());
  std::map<uint64_t, std::vector<std::vector<index::SearchHit>>> expected_at;
  auto snapshot_oracle = [&] {
    auto& snapshot = expected_at[oracle.ingest_epoch()];
    if (!snapshot.empty()) return;
    for (const auto& q : queries) snapshot.push_back(oracle.Search(q, 10));
  };
  snapshot_oracle();  // epoch 0: empty corpus
  size_t cursor = 0;
  while (cursor < docs.size()) {
    size_t end = std::min(cursor + kBatch, docs.size());
    for (size_t i = cursor; i < end; ++i) {
      const auto& d = docs[i];
      ASSERT_TRUE(oracle
                      .AddDocument(d.url, d.title, d.body, d.is_deep_web,
                                   d.source_host)
                      .ok());
    }
    cursor = end;
    snapshot_oracle();
  }

  std::atomic<bool> ingest_done{false};
  std::thread ingester([&] {
    size_t at = 0;
    while (at < docs.size()) {
      size_t end = std::min(at + kBatch, docs.size());
      std::vector<index::Document> batch(docs.begin() + at,
                                         docs.begin() + end);
      ASSERT_TRUE(coordinator.InsertBatch(batch).ok());
      at = end;
    }
    ingest_done.store(true);
  });

  std::vector<std::thread> searchers;
  for (size_t t = 0; t < 3; ++t) {
    searchers.emplace_back([&, t] {
      Rng rng(1234 + t);
      while (!ingest_done.load()) {
        size_t qi = static_cast<size_t>(rng.Uniform(queries.size()));
        // Epoch before and after brackets which snapshots are legal.
        uint64_t before = coordinator.ingest_epoch();
        auto hits = coordinator.SearchTerms(
            index::ContentTokens(queries[qi]), 10);
        uint64_t after = coordinator.ingest_epoch();
        if (before == after) {
          // A stable snapshot: ingest lands whole batches under the
          // writer lock, so a stable epoch is a batch boundary and the
          // result must equal that exact oracle snapshot.
          auto it = expected_at.find(before);
          ASSERT_NE(it, expected_at.end())
              << "epoch " << before << " is not a batch boundary";
          ExpectSameHits(it->second[qi], hits,
                         "concurrent query \"" + queries[qi] +
                             "\" at epoch " + std::to_string(before));
        }
      }
    });
  }
  ingester.join();
  for (auto& t : searchers) t.join();

  // Quiesced: full equivalence.
  const auto& final_expected = expected_at.at(oracle.ingest_epoch());
  for (size_t qi = 0; qi < queries.size(); ++qi) {
    ExpectSameHits(final_expected[qi], coordinator.Search(queries[qi], 10),
                   "post-ingest query \"" + queries[qi] + "\"");
  }
}

}  // namespace
}  // namespace remote
}  // namespace deepsurf
