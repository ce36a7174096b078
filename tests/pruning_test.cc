// Equivalence tests for block-max maxscore top-k pruning: for any
// corpus, query, and k, the pruned path must return results
// BYTE-IDENTICAL to the exhaustive scorer — same documents, bit-for-bit
// equal score doubles, same (score desc, doc id asc) tie-break order.
// Exercised on randomized corpora across k well below, at, and above
// the corpus size, at 1/3/8 shards, with and without the serve-layer
// result cache, with postings compressed (bit-packed sealed blocks) and
// raw, across decode-cache budgets, at block sizes small enough to
// force many sealed blocks plus an unsealed tail, plus the degenerate
// inputs (empty query, unknown terms, k = 0).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "index/analyzer.h"
#include "index/inverted_index.h"
#include "index/sharded_index.h"
#include "serve/engine.h"
#include "synthweb/vocab.h"
#include "test_support.h"
#include "util/rng.h"

namespace deepsurf {
namespace index {
namespace {

using testing_support::ExpectSameHits;

// Every query in this suite runs fully traced (1-in-1 sampling, see
// test_support.h): byte identity must hold with tracing enabled.
[[maybe_unused]] obs::Tracer* const kTracingInstalled =
    testing_support::InstallTracingEveryQuery();

/// A corpus whose scores collide often (shared vocabulary, skewed term
/// popularity, title boosts, wildly varying lengths) — the worst case
/// for a pruner that mishandles ties or bounds.
std::vector<Document> RandomDocs(uint64_t seed, size_t n) {
  Rng rng(seed);
  const auto& words = synthweb::EnglishWords();
  std::vector<Document> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t len = 3 + static_cast<size_t>(rng.Uniform(120));
    std::string body;
    for (size_t w = 0; w < len; ++w) {
      // Zipf-ish skew: a small head of very common terms plus a tail.
      size_t r = rng.Bernoulli(0.5) ? rng.Uniform(12)
                                    : rng.Uniform(words.size());
      body += words[r];
      body.push_back(' ');
    }
    std::string title = rng.Bernoulli(0.3)
                            ? words[rng.Uniform(words.size())] + " " +
                                  words[rng.Uniform(24)]
                            : "t";
    docs.push_back(Document{"http://h" + std::to_string(i % 17) +
                                ".example.com/p" + std::to_string(i),
                            title, body, i % 3 == 0,
                            "h" + std::to_string(i % 17) + ".example.com"});
  }
  return docs;
}

std::vector<std::vector<std::string>> RandomQueries(uint64_t seed, size_t n) {
  Rng rng(seed);
  const auto& words = synthweb::EnglishWords();
  std::vector<std::vector<std::string>> queries;
  queries.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t len = 1 + rng.Uniform(8);
    std::vector<std::string> terms;
    for (size_t t = 0; t < len; ++t) {
      if (rng.Bernoulli(0.05)) {
        terms.push_back("zzunknownterm" + std::to_string(rng.Uniform(5)));
      } else if (!terms.empty() && rng.Bernoulli(0.1)) {
        terms.push_back(terms.front());  // repeated query term
      } else {
        terms.push_back(words[rng.Uniform(words.size())]);
      }
    }
    queries.push_back(std::move(terms));
  }
  return queries;
}

class PruningEquivalenceTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(PruningEquivalenceTest, PrunedTopKisByteIdenticalToExhaustive) {
  auto docs = RandomDocs(GetParam(), 600);

  IndexOptions exhaustive_opts;
  exhaustive_opts.enable_pruning = false;
  InvertedIndex exhaustive(exhaustive_opts);
  ASSERT_TRUE(exhaustive.InsertBatch(docs).ok());

  // Pruned configurations: compression on/off crossed with the
  // decode-cache budget, at a block size small enough that common terms
  // span many sealed blocks plus a tail (df up to 600 at block 16) and
  // at the default block size where most lists are tail-only. Every one
  // must be byte-identical to the exhaustive reference.
  struct Config {
    bool compress;
    size_t block;
    size_t cache = 16u << 20;  // IndexOptions::decode_cache_bytes default
  };
  for (const Config& cfg :
       {Config{false, 16}, Config{true, 16}, Config{true, 128},
        // Pinned-decode edge cases: no budget (every touch decodes to
        // scratch) and a budget so small it exhausts mid-corpus (mixed
        // pinned/unpinned blocks within single lists).
        Config{true, 16, /*cache=*/0}, Config{true, 16, /*cache=*/256}}) {
    IndexOptions pruned_opts;
    pruned_opts.enable_pruning = true;
    pruned_opts.pruning_min_postings = 0;  // force maxscore on this corpus
    pruned_opts.compress_postings = cfg.compress;
    pruned_opts.posting_block_size = cfg.block;
    pruned_opts.decode_cache_bytes = cfg.cache;
    InvertedIndex pruned(pruned_opts);
    ASSERT_TRUE(pruned.InsertBatch(docs).ok());
    ASSERT_EQ(pruned.num_docs(), exhaustive.num_docs());

    const std::vector<size_t> ks = {1, 10, 100, pruned.num_docs() + 3};
    for (const auto& terms : RandomQueries(GetParam() * 31 + 7, 150)) {
      for (size_t k : ks) {
        ExpectSameHits(exhaustive.SearchTerms(terms, k),
                       pruned.SearchTerms(terms, k),
                       "seed " + std::to_string(GetParam()) + " k=" +
                           std::to_string(k) + (cfg.compress ? " comp" : "") +
                           " block=" + std::to_string(cfg.block) +
                           " cache=" + std::to_string(cfg.cache));
      }
    }
  }
}

TEST_P(PruningEquivalenceTest,
       CompressedExhaustiveMatchesUncompressedExhaustive) {
  // The compressed layout must be unobservable on the exhaustive path
  // too (the adaptive fallback routes real queries there): decode-and-
  // score equals raw-array scoring bit for bit.
  auto docs = RandomDocs(GetParam() * 13 + 5, 500);

  IndexOptions raw_opts;
  raw_opts.enable_pruning = false;
  InvertedIndex raw(raw_opts);
  ASSERT_TRUE(raw.InsertBatch(docs).ok());

  IndexOptions comp_opts;
  comp_opts.enable_pruning = false;
  comp_opts.compress_postings = true;
  comp_opts.posting_block_size = 32;
  InvertedIndex compressed(comp_opts);
  ASSERT_TRUE(compressed.InsertBatch(docs).ok());

  for (const auto& terms : RandomQueries(GetParam() * 3 + 2, 100)) {
    for (size_t k : {1u, 10u, 100u}) {
      ExpectSameHits(raw.SearchTerms(terms, k),
                     compressed.SearchTerms(terms, k),
                     "exhaustive compressed k=" + std::to_string(k));
    }
  }

  // And the compressed doc-id storage must actually be smaller.
  auto raw_mem = raw.MemoryUsage();
  auto comp_mem = compressed.MemoryUsage();
  EXPECT_EQ(raw_mem.num_postings, comp_mem.num_postings);
  EXPECT_LT(comp_mem.posting_doc_bytes(), raw_mem.posting_doc_bytes());
  EXPECT_EQ(raw_mem.posting_weight_bytes, comp_mem.posting_weight_bytes);
}

TEST_P(PruningEquivalenceTest, ShardedPrunedMatchesExhaustiveSingleIndex) {
  auto docs = RandomDocs(GetParam() * 101 + 13, 400);

  IndexOptions exhaustive_opts;
  exhaustive_opts.enable_pruning = false;
  InvertedIndex reference(exhaustive_opts);
  ASSERT_TRUE(reference.InsertBatch(docs).ok());

  auto queries = RandomQueries(GetParam() * 57 + 1, 80);
  // Raw and bit-packed compressed postings, each at 1/3/8 shards.
  for (size_t shards : {1u, 3u, 8u}) {
    for (bool compress : {false, true}) {
      ShardedIndexOptions sopts;
      sopts.num_shards = shards;
      sopts.index.enable_pruning = true;
      sopts.index.pruning_min_postings = 0;  // force maxscore per shard
      sopts.index.compress_postings = compress;
      sopts.index.posting_block_size = 16;  // many sealed blocks + tails
      ShardedIndex sharded(sopts);
      ASSERT_TRUE(sharded.InsertBatch(docs).ok());

      for (const auto& terms : queries) {
        for (size_t k : {1u, 10u, 100u}) {
          ExpectSameHits(reference.SearchTerms(terms, k),
                         sharded.SearchTerms(terms, k),
                         std::to_string(shards) + " shards, k=" +
                             std::to_string(k) +
                             (compress ? ", compressed" : ""));
        }
      }
    }
  }
}

TEST_P(PruningEquivalenceTest, EquivalentThroughServeEngineCache) {
  auto docs = RandomDocs(GetParam() * 7 + 3, 300);

  IndexOptions exhaustive_opts;
  exhaustive_opts.enable_pruning = false;
  InvertedIndex reference(exhaustive_opts);
  ASSERT_TRUE(reference.InsertBatch(docs).ok());

  ShardedIndexOptions sopts;
  sopts.num_shards = 3;
  sopts.index.enable_pruning = true;
  sopts.index.pruning_min_postings = 0;  // force maxscore per shard
  ShardedIndex sharded(sopts);
  ASSERT_TRUE(sharded.InsertBatch(docs).ok());

  serve::Engine with_cache(&sharded);

  for (const auto& terms : RandomQueries(GetParam() * 11 + 9, 60)) {
    std::string query;
    for (const auto& t : terms) query += t + " ";
    auto expected = reference.Search(query, 10);
    ExpectSameHits(expected, with_cache.Search(query, 10).hits, "cold");
    auto repeat = with_cache.Search(query, 10);
    EXPECT_TRUE(repeat.from_cache);
    ExpectSameHits(expected, repeat.hits, "cached");
  }
  EXPECT_GT(with_cache.stats().cache_hits, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, PruningEquivalenceTest,
                         ::testing::Values(1u, 42u, 2026u));

TEST(PruningEdgeCases, EmptyQueryUnknownTermsAndZeroK) {
  IndexOptions popts;
  popts.pruning_min_postings = 0;  // tiny corpus, still exercise maxscore
  InvertedIndex idx(popts);
  EXPECT_TRUE(idx.SearchTerms({"anything"}, 5).empty());  // empty index
  ASSERT_TRUE(idx.AddDocument("u1", "t", "alpha beta gamma", false, "h").ok());
  ASSERT_TRUE(idx.AddDocument("u2", "t", "alpha delta", false, "h").ok());

  EXPECT_TRUE(idx.SearchTerms({}, 5).empty());
  EXPECT_TRUE(idx.SearchTerms({"zzznope", "zzznada"}, 5).empty());
  EXPECT_TRUE(idx.SearchTerms({"alpha"}, 0).empty());

  // k far above the corpus size returns everything, ranked.
  auto all = idx.SearchTerms({"alpha"}, 50);
  EXPECT_EQ(all.size(), 2u);

  // A query mixing unknown and known terms scores only the known ones.
  IndexOptions ex;
  ex.enable_pruning = false;
  InvertedIndex exhaustive(ex);
  ASSERT_TRUE(
      exhaustive.AddDocument("u1", "t", "alpha beta gamma", false, "h").ok());
  ASSERT_TRUE(exhaustive.AddDocument("u2", "t", "alpha delta", false, "h").ok());
  ExpectSameHits(exhaustive.SearchTerms({"zzznope", "alpha", "beta"}, 2),
                 idx.SearchTerms({"zzznope", "alpha", "beta"}, 2),
                 "mixed unknown/known query");
}

TEST(PruningEdgeCases, InlineAndCachedNormsAgreeBitForBit) {
  // The norm cache is only built for queries whose postings volume
  // amortizes the build; smaller queries compute norms inline. The two
  // modes must be unobservable in results: a rare-term query answered
  // before any cache exists (inline) and again after a big query built
  // the cache must return identical bytes.
  auto docs = RandomDocs(5, 400);
  docs.push_back(Document{"http://solo.example.com/p", "t",
                          "qqrare solitary content here", false,
                          "solo.example.com"});
  InvertedIndex idx;  // default options: pruning on, threshold 4096
  ASSERT_TRUE(idx.InsertBatch(docs).ok());

  auto before = idx.SearchTerms({"qqrare"}, 10);  // inline norms
  ASSERT_FALSE(before.empty());

  const auto& words = synthweb::EnglishWords();
  std::vector<std::string> big_query(words.begin(), words.begin() + 12);
  (void)idx.SearchTerms(big_query, 10);  // head terms: builds the cache

  auto after = idx.SearchTerms({"qqrare"}, 10);  // cached norms
  ExpectSameHits(before, after, "inline vs cached norms");
}

TEST(PruningEdgeCases, BlockBoundaryExactMultipleHasNoTail) {
  // A term whose df is an exact multiple of the block size seals its
  // last posting into a block and leaves an EMPTY tail — the cursor
  // edge case for SeekTo past the final block and for Next() off the
  // last sealed posting.
  for (bool compress : {false, true}) {
    IndexOptions opts;
    opts.enable_pruning = true;
    opts.pruning_min_postings = 0;
    opts.posting_block_size = 8;
    opts.compress_postings = compress;
    InvertedIndex idx(opts);
    IndexOptions ex_opts;
    ex_opts.enable_pruning = false;
    InvertedIndex exhaustive(ex_opts);
    // "every" appears in all 24 docs (3 full blocks, no tail); "rare"
    // only in the last.
    for (int i = 0; i < 24; ++i) {
      std::string body = "every common filler" +
                         std::string(i == 23 ? " rare" : "") + " pad" +
                         std::to_string(i % 5);
      ASSERT_TRUE(idx.AddDocument("u" + std::to_string(i), "t", body, false,
                                  "h").ok());
      ASSERT_TRUE(exhaustive.AddDocument("u" + std::to_string(i), "t", body,
                                         false, "h").ok());
    }
    for (size_t k : {1u, 5u, 30u}) {
      ExpectSameHits(exhaustive.SearchTerms({"every"}, k),
                     idx.SearchTerms({"every"}, k), "single full-block term");
      ExpectSameHits(exhaustive.SearchTerms({"every", "rare"}, k),
                     idx.SearchTerms({"every", "rare"}, k),
                     "frontier seeks into the last block");
    }
  }
}

TEST(PruningEdgeCases, AdaptiveFallbackIsUnobservableInResults) {
  // The adaptive deep-k fallback flips which scorer answers, never what
  // it answers: always maxscore (0), the deep-k fallback armed on every
  // query (1), and a postings floor that sends every query here to the
  // exhaustive scan must return identical bytes.
  auto docs = RandomDocs(77, 400);
  IndexOptions ex;
  ex.enable_pruning = false;
  InvertedIndex reference(ex);
  ASSERT_TRUE(reference.InsertBatch(docs).ok());

  auto queries = RandomQueries(78, 60);
  for (size_t min_postings : {0u, 1u, 1000000u}) {
    IndexOptions opts;
    opts.enable_pruning = true;
    opts.pruning_min_postings = min_postings;
    InvertedIndex idx(opts);
    ASSERT_TRUE(idx.InsertBatch(docs).ok());
    for (const auto& terms : queries) {
      for (size_t k : {1u, 10u, 100u}) {
        ExpectSameHits(reference.SearchTerms(terms, k),
                       idx.SearchTerms(terms, k),
                       "pruning_min_postings " + std::to_string(min_postings));
      }
    }
  }
}

TEST(PruningEdgeCases, MemoryUsageSumsAcrossShards) {
  auto docs = RandomDocs(21, 300);
  ShardedIndexOptions sopts;
  sopts.num_shards = 3;
  sopts.index.compress_postings = true;
  sopts.index.posting_block_size = 16;
  ShardedIndex sharded(sopts);
  ASSERT_TRUE(sharded.InsertBatch(docs).ok());

  auto total = sharded.MemoryUsage();
  IndexMemoryUsage manual;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    manual.Add(sharded.shard(s).MemoryUsage());
  }
  EXPECT_EQ(total.num_postings, manual.num_postings);
  EXPECT_EQ(total.posting_doc_bytes(), manual.posting_doc_bytes());
  EXPECT_EQ(total.total_bytes(), manual.total_bytes());
  EXPECT_GT(total.num_postings, 0u);
  EXPECT_GT(total.dictionary_bytes, 0u);
  EXPECT_GT(total.doc_bytes_per_posting(), 0.0);
  // Compressed doc-id storage beats 4 raw bytes per posting.
  EXPECT_LT(total.doc_bytes_per_posting(), 4.0);
}

TEST(PruningEdgeCases, SearchStatsCountDecodesAndSkips) {
  auto docs = RandomDocs(47, 500);
  IndexOptions opts;
  opts.enable_pruning = true;
  opts.pruning_min_postings = 0;
  opts.compress_postings = true;
  opts.posting_block_size = 16;
  InvertedIndex pruned(opts);
  ASSERT_TRUE(pruned.InsertBatch(docs).ok());
  IndexOptions ex_opts;
  ex_opts.enable_pruning = false;
  ex_opts.compress_postings = true;
  ex_opts.posting_block_size = 16;
  InvertedIndex exhaustive(ex_opts);
  ASSERT_TRUE(exhaustive.InsertBatch(docs).ok());

  ASSERT_EQ(pruned.search_stats().queries, 0u);
  auto queries = RandomQueries(48, 40);
  for (const auto& terms : queries) {
    (void)pruned.SearchTerms(terms, 5);
    (void)exhaustive.SearchTerms(terms, 5);
  }
  const SearchStats ps = pruned.search_stats();
  const SearchStats es = exhaustive.search_stats();
  EXPECT_EQ(ps.queries, queries.size());
  EXPECT_EQ(es.queries, queries.size());
  EXPECT_GT(ps.blocks_decoded, 0u);
  // The exhaustive scorer decodes every sealed block of every resolved
  // term and skips none; pruning must decode strictly less and show its
  // skips on this corpus (common terms span ~30 blocks at block 16).
  EXPECT_EQ(es.blocks_skipped, 0u);
  EXPECT_GT(ps.blocks_skipped, 0u);
  EXPECT_LT(ps.blocks_decoded, es.blocks_decoded);

  // The sharded wrapper sums its shards.
  ShardedIndexOptions sopts;
  sopts.num_shards = 3;
  sopts.index = opts;
  ShardedIndex sharded(sopts);
  ASSERT_TRUE(sharded.InsertBatch(docs).ok());
  ASSERT_EQ(sharded.search_stats().queries, 0u);
  for (const auto& terms : queries) (void)sharded.SearchTerms(terms, 5);
  SearchStats manual;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    manual.Add(sharded.shard(s).search_stats());
  }
  const SearchStats total = sharded.search_stats();
  EXPECT_EQ(total.queries, manual.queries);
  EXPECT_EQ(total.blocks_decoded, manual.blocks_decoded);
  EXPECT_EQ(total.blocks_skipped, manual.blocks_skipped);
  EXPECT_GT(total.blocks_decoded, 0u);
}

TEST(PruningEdgeCases, DecodeAccountingIsIndependentOfTheDecodeBudget) {
  // Cursor and warm-up reads of sealed compressed blocks all go through
  // one path, pinned or not: the decode budget decides only whether a
  // read is a decode or a cache hit, never how many blocks a query reads
  // or skips. Budgets: none (every read decodes to scratch), 256 bytes
  // (four blocks of 16, spent mid-query), and the default.
  auto docs = RandomDocs(53, 5000);
  auto queries = RandomQueries(54, 40);
  // Head-term queries carry enough candidate postings, over a corpus
  // big enough, that default routing (pruning_min_postings 4096,
  // deep-k factor 1024: maxscore needs a pool above k x terms x 1024)
  // runs maxscore on them at k = 1. At k = 10 and 100, and for single-
  // term queries, it runs the exhaustive scan, whose block reads
  // through the same slots obey the same identity.
  const auto& words = synthweb::EnglishWords();
  for (size_t i = 0; i < 12; ++i) {
    queries.push_back({words[i], words[(i + 3) % 12], words[(i + 7) % 12],
                       words[20 + i]});
  }
  for (bool force_maxscore : {true, false}) {
    const std::string label =
        force_maxscore ? "forced maxscore" : "default routing";
    std::vector<SearchStats> stats;
    for (size_t cache : {size_t{0}, size_t{256},
                         IndexOptions{}.decode_cache_bytes}) {
      IndexOptions opts;
      opts.compress_postings = true;
      opts.posting_block_size = 16;
      opts.decode_cache_bytes = cache;
      if (force_maxscore) opts.pruning_min_postings = 0;
      InvertedIndex idx(opts);
      ASSERT_TRUE(idx.InsertBatch(docs).ok());
      for (const auto& terms : queries) {
        for (size_t k : {1u, 10u, 100u}) (void)idx.SearchTerms(terms, k);
      }
      stats.push_back(idx.search_stats());
    }
    EXPECT_EQ(stats[0].decode_cache_hits, 0u) << label;
    EXPECT_GT(stats[2].decode_cache_hits, 0u) << label;
    EXPECT_GT(stats[0].blocks_skipped, 0u) << label;
    for (size_t i = 1; i < stats.size(); ++i) {
      EXPECT_EQ(stats[i].blocks_skipped, stats[0].blocks_skipped) << label;
      EXPECT_EQ(stats[i].blocks_decoded + stats[i].decode_cache_hits,
                stats[0].blocks_decoded + stats[0].decode_cache_hits)
          << label;
    }
  }
}

TEST(PruningEdgeCases, ExhaustiveScanReadsThroughThePinnedSlots) {
  // The exhaustive scan reads each sealed block of each resolved list
  // exactly once, through the same pinned-decode slots as maxscore's
  // cursors: a block maxscore pinned is a cache hit, any other block is
  // decoded (and pinned while the budget lasts), so the scan's second
  // run over the same lists decodes nothing.
  auto docs = RandomDocs(61, 5000);
  IndexOptions opts;
  opts.compress_postings = true;
  opts.posting_block_size = 16;
  InvertedIndex idx(opts);
  ASSERT_TRUE(idx.InsertBatch(docs).ok());
  const auto& words = synthweb::EnglishWords();
  const std::vector<std::string> terms = {words[0], words[3], words[7],
                                          words[20]};
  uint64_t sealed = 0;
  for (const auto& t : terms) sealed += idx.DocFrequency(t) / 16;

  // Three head terms at k = 1: default routing runs maxscore, which
  // skips blocks and pins the ones it reads.
  (void)idx.SearchTerms(terms, 1);
  const SearchStats warm = idx.search_stats();
  ASSERT_GT(warm.blocks_skipped, 0u);
  ASSERT_GT(idx.MemoryUsage().decode_cache_bytes, 0u);

  // k = the corpus size: the same terms go to the exhaustive scan.
  (void)idx.SearchTerms(terms, idx.num_docs());
  const SearchStats first = idx.search_stats();
  EXPECT_GT(first.decode_cache_hits - warm.decode_cache_hits, 0u);
  EXPECT_EQ(first.decode_cache_hits - warm.decode_cache_hits +
                first.blocks_decoded - warm.blocks_decoded,
            sealed);
  EXPECT_EQ(first.blocks_skipped, warm.blocks_skipped);

  (void)idx.SearchTerms(terms, idx.num_docs());
  const SearchStats second = idx.search_stats();
  EXPECT_EQ(second.decode_cache_hits - first.decode_cache_hits, sealed);
  EXPECT_EQ(second.blocks_decoded, first.blocks_decoded);
}

TEST(PruningEdgeCases, TermInterningIsDense) {
  InvertedIndex idx;
  ASSERT_TRUE(idx.AddDocument("u1", "t", "alpha beta", false, "h").ok());
  ASSERT_TRUE(idx.AddDocument("u2", "t", "beta gamma", false, "h").ok());
  EXPECT_EQ(idx.vocabulary_size(), 3u);
  EXPECT_NE(idx.LookupTerm("alpha"), InvertedIndex::kInvalidTerm);
  EXPECT_NE(idx.LookupTerm("gamma"), InvertedIndex::kInvalidTerm);
  EXPECT_EQ(idx.LookupTerm("delta"), InvertedIndex::kInvalidTerm);
  EXPECT_EQ(idx.DocFrequency("beta"), 2u);
}

}  // namespace
}  // namespace index
}  // namespace deepsurf
