// Copyright 2026 The deepsurf Authors.
//
// The index abstraction split out of InvertedIndex so that serving-side
// code (querylog replay, the serve::Engine, the surfacing driver's
// ingestion) is written against an interface with two implementations:
// the single InvertedIndex and the sharded index that partitions a
// corpus across many of them. The contract every implementation must
// honor: Search results are fully deterministic — ranked by score
// descending, ties broken by ascending DocId — and two implementations
// holding the same documents in the same insertion order return
// byte-identical hit lists.

#ifndef DEEPSURF_INDEX_SEARCH_INDEX_H_
#define DEEPSURF_INDEX_SEARCH_INDEX_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/result.h"

namespace deepsurf {
namespace index {

using DocId = uint32_t;

/// Metadata kept per indexed document.
struct DocInfo {
  std::string url;
  std::string title;
  uint32_t length = 0;        ///< content tokens
  uint64_t content_hash = 0;  ///< for duplicate suppression
  bool is_deep_web = false;   ///< provenance: produced by surfacing
  std::string source_host;    ///< host the page came from
};

/// One search hit.
struct SearchHit {
  DocId doc = 0;
  double score = 0.0;
};

/// One document prepared for batch ingestion.
struct Document {
  std::string url;
  std::string title;
  std::string body;
  bool is_deep_web = false;
  std::string source_host;
};

/// Memory footprint of an index's query-time structures, in bytes.
/// Implementations count bytes *used* (not allocator capacity), so the
/// numbers are deterministic for a given corpus and benches can gate on
/// them; per-entry container overheads are flat estimates for the same
/// reason. Sharded/distributed wrappers sum their parts — the result
/// describes the logical corpus once, not replicas.
struct IndexMemoryUsage {
  /// Doc-id storage, split by format: `raw` counts uncompressed ids
  /// (whole lists when compression is off; just the unsealed tails when
  /// it is on), `packed` counts the sealed blocks' bit-packed bytes.
  /// The old lumped `posting_doc_bytes` figure is the sum, kept as a
  /// method so existing gates keep reading.
  uint64_t posting_doc_raw_bytes = 0;
  uint64_t posting_doc_packed_bytes = 0;
  /// Posting-weight storage: one raw float per posting.
  uint64_t posting_weight_bytes = 0;
  uint64_t posting_block_bytes = 0;  ///< skip entries + impact order
  uint64_t dictionary_bytes = 0;     ///< term strings + interning table
  uint64_t norm_cache_bytes = 0;     ///< BM25 length-norm cache
  /// Decoded-block cache (IndexOptions::decode_cache_bytes): bounded
  /// working memory, not part of the index image — counted in
  /// total_bytes but excluded from the per-posting storage ratios the
  /// compression gates read.
  uint64_t decode_cache_bytes = 0;
  uint64_t num_postings = 0;

  /// All doc-id bytes regardless of format.
  uint64_t posting_doc_bytes() const {
    return posting_doc_raw_bytes + posting_doc_packed_bytes;
  }
  uint64_t total_bytes() const {
    return posting_doc_bytes() + posting_weight_bytes +
           posting_block_bytes + dictionary_bytes + norm_cache_bytes +
           decode_cache_bytes;
  }
  /// Doc-id bytes per posting — the posting-compression headline.
  double doc_bytes_per_posting() const {
    return num_postings == 0
               ? 0.0
               : static_cast<double>(posting_doc_bytes()) /
                     static_cast<double>(num_postings);
  }
  /// All posting-structure bytes (doc ids + weights + block skip
  /// entries) per posting — what the benches report as
  /// bytes_per_posting.
  double bytes_per_posting() const {
    return num_postings == 0
               ? 0.0
               : static_cast<double>(posting_doc_bytes() +
                                     posting_weight_bytes +
                                     posting_block_bytes) /
                     static_cast<double>(num_postings);
  }
  void Add(const IndexMemoryUsage& o) {
    posting_doc_raw_bytes += o.posting_doc_raw_bytes;
    posting_doc_packed_bytes += o.posting_doc_packed_bytes;
    posting_weight_bytes += o.posting_weight_bytes;
    posting_block_bytes += o.posting_block_bytes;
    dictionary_bytes += o.dictionary_bytes;
    norm_cache_bytes += o.norm_cache_bytes;
    decode_cache_bytes += o.decode_cache_bytes;
    num_postings += o.num_postings;
  }
};

/// Cumulative query-execution counters since index construction.
/// `blocks_decoded` counts sealed posting blocks actually decoded into
/// a decode window (by DAAT cursors, impact-ordered warm-up, or the
/// exhaustive scorer); `blocks_skipped` counts sealed blocks a cursor
/// jumped past on skip metadata alone, never decoding them;
/// `decode_cache_hits` counts sealed blocks a query read straight out
/// of the decoded-block cache, paying neither a decode nor a skip.
/// Together they make block-max pruning and the cache observable: the
/// win is a falling decoded/(skipped+hits) ratio, not vibes. Sharded
/// wrappers sum their shards.
struct SearchStats {
  uint64_t queries = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t decode_cache_hits = 0;

  void Add(const SearchStats& o) {
    queries += o.queries;
    blocks_decoded += o.blocks_decoded;
    blocks_skipped += o.blocks_skipped;
    decode_cache_hits += o.decode_cache_hits;
  }
};

/// Read side of an index: everything query serving needs.
///
/// Thread safety is implementation-defined: InvertedIndex reads are not
/// synchronized against concurrent writes, ShardedIndex reads are.
class SearchIndex {
 public:
  virtual ~SearchIndex() = default;

  /// Top-k BM25 hits for a keyword query.
  virtual std::vector<SearchHit> Search(const std::string& query,
                                        size_t k) const = 0;

  /// As Search, but with pre-tokenized terms.
  virtual std::vector<SearchHit> SearchTerms(
      const std::vector<std::string>& terms, size_t k) const = 0;

  /// Document metadata by id. Returned by value: implementations that
  /// allow reads during concurrent ingest hand the caller a snapshot,
  /// never a reference into storage that ingest may reallocate.
  virtual DocInfo doc(DocId id) const = 0;

  /// Borrowed reference to document metadata — the serving path's
  /// no-copy accessor (doc() copies two strings per call). Both
  /// implementations keep documents in append-only, non-relocating
  /// storage, so the reference stays valid for the life of the index,
  /// across concurrent and later ingest included (documents are never
  /// removed or moved).
  virtual const DocInfo& doc_ref(DocId id) const = 0;

  virtual size_t num_docs() const = 0;

  /// Monotone counter that advances whenever a document enters the index.
  /// A cached query result taken at epoch E is valid exactly while
  /// ingest_epoch() == E (documents are never removed); the serve-layer
  /// result cache keys its invalidation on this.
  virtual uint64_t ingest_epoch() const = 0;

  /// Memory accounting snapshot of the index's query-time structures.
  /// Implementations that cannot account return the zero struct (the
  /// default).
  virtual IndexMemoryUsage MemoryUsage() const { return {}; }

  /// Cumulative query-execution counters (see SearchStats).
  /// Implementations that do not track return the zero struct.
  virtual SearchStats search_stats() const { return {}; }
};

/// Write side: ingestion of surfaced (and crawled) pages.
class WritableIndex : public SearchIndex {
 public:
  /// Indexes a document; returns its DocId. With duplicate suppression
  /// on, returns the DocId of the already-indexed duplicate instead of
  /// adding a new one.
  virtual Result<DocId> AddDocument(const std::string& url,
                                    const std::string& title,
                                    const std::string& body, bool is_deep_web,
                                    const std::string& source_host) = 0;

  /// Ingests a batch; returns how many documents were newly added
  /// (duplicates suppressed, not counted). When `newly_added` is
  /// non-null it is resized to the batch and marks, per position,
  /// whether that document entered the index.
  virtual Result<size_t> InsertBatch(
      const std::vector<Document>& docs,
      std::vector<bool>* newly_added = nullptr) = 0;
};

}  // namespace index
}  // namespace deepsurf

#endif  // DEEPSURF_INDEX_SEARCH_INDEX_H_
