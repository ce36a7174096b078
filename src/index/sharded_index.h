// Copyright 2026 The deepsurf Authors.
//
// The sharded index: the corpus partitioned by URL hash across N
// InvertedIndex shards, searched in parallel and merged into an exact
// global top-k. This is the serving-scale shape of the paper's §3.2
// story — surfaced pages live in the ordinary web index, and that index
// must answer millions of user queries — without giving up the exact
// semantics of one index:
//
//   * Scores are computed with *corpus-wide* BM25 statistics (document
//     count, average length, per-term document frequency), injected into
//     each shard via InvertedIndex::SearchTermsScored. A document's
//     score therefore never depends on which shard holds it.
//   * Every document gets a global DocId in insertion order, exactly the
//     id a single InvertedIndex would have assigned. Ties are broken on
//     global ids, so the merged ranking — scores and order both — is
//     byte-identical to the single-shard ranking over the same corpus
//     (sharded_index_test holds this contract down to score bits).
//   * Duplicate suppression is global: two URLs with the same content
//     hash collapse to one document even when their URL hashes would
//     have routed them to different shards.
//
// Thread safety: unlike the bare InvertedIndex, reads ARE synchronized
// against writes (readers share a lock, ingest excludes them), so a
// serve::Engine can answer queries while a SurfacingDriver is still
// ingesting. doc() returns a snapshot by value for the same reason.

#ifndef DEEPSURF_INDEX_SHARDED_INDEX_H_
#define DEEPSURF_INDEX_SHARDED_INDEX_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "index/inverted_index.h"
#include "index/search_index.h"
#include "util/result.h"

namespace deepsurf {
namespace index {

struct ShardedIndexOptions {
  /// Number of InvertedIndex shards; 1 reduces to a synchronized wrapper
  /// around a single index.
  size_t num_shards = 4;
  /// Fan each query out to a persistent pool of per-shard search workers
  /// (one per shard beyond the first). Purely a latency knob: results
  /// are identical either way, and when the pool is busy with another
  /// query the search simply scans shards on the calling thread — with
  /// many serving threads the workers assist whichever query grabs them
  /// first.
  bool parallel_search = true;
  /// Per-shard index options. Duplicate suppression is global (see the
  /// file comment).
  IndexOptions index;
};

/// Hash-partitioned index with exact global top-k merge.
class ShardedIndex : public WritableIndex {
 public:
  explicit ShardedIndex(ShardedIndexOptions options = {});
  ~ShardedIndex() override;

  ShardedIndex(const ShardedIndex&) = delete;
  ShardedIndex& operator=(const ShardedIndex&) = delete;

  Result<DocId> AddDocument(const std::string& url, const std::string& title,
                            const std::string& body, bool is_deep_web,
                            const std::string& source_host) override;

  Result<size_t> InsertBatch(const std::vector<Document>& docs,
                             std::vector<bool>* newly_added =
                                 nullptr) override;  // same default as base

  std::vector<SearchHit> Search(const std::string& query,
                                size_t k) const override;

  std::vector<SearchHit> SearchTerms(const std::vector<std::string>& terms,
                                     size_t k) const override;

  /// Global-id lookup; a value snapshot, safe under concurrent ingest.
  DocInfo doc(DocId id) const override;

  /// Global-id lookup without the copy. The id→shard mapping is read
  /// under the lock and shard document storage never relocates, so the
  /// returned reference stays valid even across concurrent ingest.
  const DocInfo& doc_ref(DocId id) const override;

  size_t num_docs() const override;
  uint64_t ingest_epoch() const override;

  /// Sum of the shards' memory accounting (the shared lock makes it
  /// safe against concurrent ingest, unlike the bare InvertedIndex's).
  IndexMemoryUsage MemoryUsage() const override;

  /// Sum of the shards' query-execution counters. Each SearchTerms call
  /// here counts one query per shard consulted (the shards do their own
  /// counting) — the decoded/skipped block totals are what pruning
  /// observability cares about.
  SearchStats search_stats() const override;

  size_t num_shards() const { return shards_.size(); }

  /// Which shard a URL routes to (stable for the life of the index).
  size_t ShardForUrl(const std::string& url) const;

  /// Read-only view of one shard (for tests and diagnostics). The usual
  /// read-during-ingest caveats of InvertedIndex apply to direct use.
  const InvertedIndex& shard(size_t i) const { return *shards_[i]; }

  /// True iff a document with this exact content hash exists (any shard).
  bool ContainsContent(uint64_t content_hash) const;

 private:
  /// AddDocument without the lock (callers hold mu_ exclusively).
  /// Sets *added when the document newly entered the index.
  Result<DocId> AddDocumentLocked(const Document& doc, bool* added);

  /// Per-shard top-k candidates mapped to global ids, merged by
  /// (score desc, global id asc). Requires mu_ held (shared suffices).
  std::vector<SearchHit> SearchTermsLocked(
      const std::vector<std::string>& terms, size_t k) const;

  /// One broadcast to the persistent pool: workers fill per_shard[1..N)
  /// while the caller fills shard 0, returning after all are done. The
  /// caller must hold mu_ (shared) — that is what keeps shard reads safe
  /// — and pool_busy_mu_, which serializes pool use.
  void RunPoolJob(const std::vector<std::string>& terms, size_t k,
                  const CorpusStats& stats,
                  std::vector<std::vector<SearchHit>>* per_shard) const;

  void PoolWorkerLoop(size_t shard);

  const ShardedIndexOptions options_;
  std::vector<std::unique_ptr<InvertedIndex>> shards_;

  mutable std::shared_mutex mu_;
  struct DocRef {
    uint32_t shard = 0;
    DocId local = 0;
  };
  /// Global id -> shard-local location, in insertion order.
  std::vector<DocRef> global_docs_;
  /// Per shard: local id -> global id.
  std::vector<std::vector<DocId>> local_to_global_;
  /// Global duplicate suppression: content hash -> global id.
  std::unordered_map<uint64_t, DocId> by_hash_;

  // Persistent per-shard search workers (parallel_search only; empty
  // otherwise). Spawning threads per query would cost more than the
  // per-shard BM25 scan it parallelizes.
  mutable std::mutex pool_busy_mu_;  ///< one broadcast job at a time
  mutable std::mutex pool_mu_;       ///< protects the job fields below
  mutable std::condition_variable pool_cv_;  ///< new job / shutdown
  mutable std::condition_variable pool_done_cv_;
  mutable uint64_t pool_generation_ = 0;
  mutable size_t pool_pending_ = 0;
  mutable const std::vector<std::string>* pool_terms_ = nullptr;
  mutable size_t pool_k_ = 0;
  mutable const CorpusStats* pool_stats_ = nullptr;
  mutable std::vector<std::vector<SearchHit>>* pool_out_ = nullptr;
  mutable bool pool_stop_ = false;
  std::vector<std::thread> pool_workers_;
};

}  // namespace index
}  // namespace deepsurf

#endif  // DEEPSURF_INDEX_SHARDED_INDEX_H_
