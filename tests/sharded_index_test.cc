// Equivalence regression tests for the sharded index: for any corpus
// and query stream, ShardedIndex must return *byte-identical* ranked
// results to a single InvertedIndex over the same documents — same
// global doc ids, bit-for-bit equal scores, same tie-break order — at
// any shard count, with or without the serve-layer result cache. The
// single-index references here score EXHAUSTIVELY, so these tests also
// pin the sharded stack's default maxscore pruning to the exhaustive
// ranking (pruning_test covers that contract on one index in depth).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "index/analyzer.h"
#include "index/inverted_index.h"
#include "index/sharded_index.h"
#include "querylog/query_stream.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"
#include "test_support.h"
#include "util/hash.h"

namespace deepsurf {
namespace index {
namespace {

using testing_support::ExpectSameHits;

// Every query in this suite runs fully traced (1-in-1 sampling, see
// test_support.h): byte identity must hold with tracing enabled.
[[maybe_unused]] obs::Tracer* const kTracingInstalled =
    testing_support::InstallTracingEveryQuery();

IndexOptions ExhaustiveOptions() {
  IndexOptions opts;
  opts.enable_pruning = false;
  return opts;
}

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

class ShardedEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(ShardedEquivalenceTest, ByteIdenticalToSingleShard) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);

  InvertedIndex reference(ExhaustiveOptions());
  for (const auto& d : docs) {
    ASSERT_TRUE(reference
                    .AddDocument(d.url, d.title, d.body, d.is_deep_web,
                                 d.source_host)
                    .ok());
  }

  ShardedIndexOptions sopts;
  sopts.num_shards = GetParam();
  ShardedIndex sharded(sopts);
  ASSERT_TRUE(sharded.InsertBatch(docs).ok());
  ASSERT_EQ(sharded.num_docs(), reference.num_docs());

  // Same documents, same insertion order -> identical global metadata.
  for (DocId id = 0; id < reference.num_docs(); id += 7) {
    EXPECT_EQ(sharded.doc(id).url, reference.doc(id).url);
    EXPECT_EQ(sharded.doc(id).content_hash, reference.doc(id).content_hash);
  }

  for (const auto& query : StreamQueries(corpus, 300)) {
    ExpectSameHits(reference.Search(query, 10), sharded.Search(query, 10),
                   std::to_string(GetParam()) + " shards, query \"" + query +
                       "\"");
  }
}

TEST_P(ShardedEquivalenceTest, ByteIdenticalThroughServeEngineWithCache) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);

  InvertedIndex reference(ExhaustiveOptions());
  ASSERT_TRUE(reference.InsertBatch(docs).ok());

  ShardedIndexOptions sopts;
  sopts.num_shards = GetParam();
  ShardedIndex sharded(sopts);
  ASSERT_TRUE(sharded.InsertBatch(docs).ok());

  serve::Engine with_cache(&sharded);

  // Ask everything twice: the second ask is served from the cache, and
  // fresh and cached answers must both equal the single index.
  for (const auto& query : StreamQueries(corpus, 300)) {
    auto expected = reference.Search(query, 10);
    ExpectSameHits(expected, with_cache.Search(query, 10).hits,
                   "cached engine, query \"" + query + "\"");
    auto repeat = with_cache.Search(query, 10);
    EXPECT_TRUE(repeat.from_cache) << query;
    ExpectSameHits(expected, repeat.hits,
                   "cache-served, query \"" + query + "\"");
  }
  EXPECT_GT(with_cache.stats().cache_hits, 0u);
}

TEST_P(ShardedEquivalenceTest, SequentialShardSearchMatchesParallel) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);

  ShardedIndexOptions par;
  par.num_shards = GetParam();
  par.parallel_search = true;
  ShardedIndexOptions seq = par;
  seq.parallel_search = false;

  ShardedIndex a(par);
  ShardedIndex b(seq);
  ASSERT_TRUE(a.InsertBatch(docs).ok());
  ASSERT_TRUE(b.InsertBatch(docs).ok());
  for (const auto& query : StreamQueries(corpus, 100)) {
    ExpectSameHits(a.Search(query, 10), b.Search(query, 10),
                   "parallel vs sequential, query \"" + query + "\"");
  }
}

INSTANTIATE_TEST_SUITE_P(ShardCounts, ShardedEquivalenceTest,
                         ::testing::Values(1u, 3u, 8u),
                         [](const ::testing::TestParamInfo<size_t>& info) {
                           return std::to_string(info.param) + "shards";
                         });

TEST(ShardedIndexTest, TieBreakOrderMatchesSingleShard) {
  // Token-permuted bodies score identically (same term multiset, same
  // length), so every doc ties on "tie" — ranking is pure tie-break.
  // URLs are chosen freely, so the docs scatter across shards, and the
  // merged order must still be ascending insertion (global id) order.
  std::vector<Document> docs;
  for (int i = 0; i < 12; ++i) {
    Document d;
    d.url = "http://h" + std::to_string(i) + ".example.com/p";
    d.title = "t";
    d.body = (i % 2 == 0) ? "tie alpha beta gamma delta"
                          : "gamma tie delta alpha beta";
    // Make bodies distinct so duplicate suppression keeps all of them,
    // without changing any term count.
    d.body += " unique" + std::to_string(i);
    d.source_host = "h" + std::to_string(i) + ".example.com";
    docs.push_back(std::move(d));
  }

  InvertedIndex reference(ExhaustiveOptions());
  ASSERT_TRUE(reference.InsertBatch(docs).ok());
  auto expected = reference.Search("tie", 12);
  ASSERT_EQ(expected.size(), 12u);
  for (size_t i = 1; i < expected.size(); ++i) {
    ASSERT_EQ(std::memcmp(&expected[i].score, &expected[i - 1].score,
                          sizeof(double)),
              0)
        << "fixture must produce a full tie";
    EXPECT_LT(expected[i - 1].doc, expected[i].doc);
  }

  for (size_t shards : {2u, 5u, 8u}) {
    ShardedIndexOptions sopts;
    sopts.num_shards = shards;
    ShardedIndex sharded(sopts);
    ASSERT_TRUE(sharded.InsertBatch(docs).ok());
    ExpectSameHits(expected, sharded.Search("tie", 12),
                   std::to_string(shards) + " shards");
  }
}

TEST(ShardedIndexTest, DuplicateSuppressionIsGlobalAcrossShards) {
  // Same body behind two URLs that hash to different shards: a single
  // index keeps one doc, and so must the sharded index.
  Document a{"http://a.example.com/x", "t", "shared body content", true,
             "a.example.com"};
  Document b{"http://b.example.com/y", "t", "shared body content", true,
             "b.example.com"};

  ShardedIndexOptions sopts;
  sopts.num_shards = 8;
  ShardedIndex sharded(sopts);
  ASSERT_NE(sharded.ShardForUrl(a.url), sharded.ShardForUrl(b.url))
      << "fixture URLs must land on different shards";

  auto first = sharded.AddDocument(a.url, a.title, a.body, a.is_deep_web,
                                   a.source_host);
  auto second = sharded.AddDocument(b.url, b.title, b.body, b.is_deep_web,
                                    b.source_host);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*first, *second);
  EXPECT_EQ(sharded.num_docs(), 1u);
  EXPECT_TRUE(sharded.ContainsContent(Fnv1a64("shared body content")));

  // InsertBatch reports the suppression the same way InvertedIndex does.
  ShardedIndex fresh(sopts);
  std::vector<bool> newly_added;
  auto added = fresh.InsertBatch({a, b}, &newly_added);
  ASSERT_TRUE(added.ok());
  EXPECT_EQ(*added, 1u);
  EXPECT_EQ(newly_added, (std::vector<bool>{true, false}));
}

TEST(ShardedIndexTest, ShardingPartitionsDocuments) {
  auto corpus = TestCorpus();
  auto docs = synthweb::EntityDocuments(corpus);
  ShardedIndexOptions sopts;
  sopts.num_shards = 5;
  ShardedIndex sharded(sopts);
  ASSERT_TRUE(sharded.InsertBatch(docs).ok());

  size_t across_shards = 0;
  size_t populated = 0;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    across_shards += sharded.shard(s).num_docs();
    if (sharded.shard(s).num_docs() > 0) ++populated;
  }
  EXPECT_EQ(across_shards, sharded.num_docs());
  EXPECT_GT(populated, 1u) << "hash partitioning should use many shards";

  // Routing is by URL hash and consistent with where docs landed.
  for (DocId id = 0; id < sharded.num_docs(); id += 11) {
    const auto& info = sharded.doc(id);
    size_t s = sharded.ShardForUrl(info.url);
    EXPECT_GT(sharded.shard(s).DocsForHost(info.source_host).size(), 0u);
  }
}

TEST(ShardedIndexTest, IngestEpochAdvancesOnlyWhenDocumentsEnter) {
  ShardedIndex sharded;
  EXPECT_EQ(sharded.ingest_epoch(), 0u);
  ASSERT_TRUE(
      sharded.AddDocument("u1", "t", "body one", false, "h.com").ok());
  EXPECT_EQ(sharded.ingest_epoch(), 1u);
  // A suppressed duplicate changes no results, so the epoch must hold
  // (cached results stay valid).
  ASSERT_TRUE(
      sharded.AddDocument("u2", "t", "body one", false, "h.com").ok());
  EXPECT_EQ(sharded.ingest_epoch(), 1u);
  ASSERT_TRUE(
      sharded.AddDocument("u3", "t", "body two", false, "h.com").ok());
  EXPECT_EQ(sharded.ingest_epoch(), 2u);
}

}  // namespace
}  // namespace index
}  // namespace deepsurf
