// Copyright 2026 The deepsurf Authors.
//
// Deterministic binary wire format for the shard-serving RPC boundary.
// Every message a coordinator and a shard server exchange — search
// requests (carrying the corpus-wide BM25 statistics that keep sharded
// scoring exact), scored-hit responses, replicated ingest batches, and
// health probes — is encoded as one self-describing frame: a
// MessageType byte followed by fixed-layout little-endian fields.
//
// The format is designed for the repo's signature contract (distribution
// must not change a single result bit):
//   * doubles travel as their raw IEEE-754 bit patterns (memcpy through
//     uint64_t), so scores and corpus statistics round-trip exactly —
//     including NaNs, denormals, and negative zero;
//   * integers are fixed-width little-endian, strings are
//     length-prefixed byte runs — no locale, no text formatting, no
//     platform-dependent layout;
//   * encoding is canonical both ways: encoding the same message twice
//     yields the same bytes, and a frame that decodes re-encodes to
//     exactly its own bytes (flags are 0 or 1, optional tails appear
//     only when set), so frames can be compared, hashed, and replayed
//     (the shard server's ingest replay guard hashes them).
//
// Decoders never trust the peer: every read is bounds-checked and a
// malformed, truncated, or non-canonical frame yields InvalidArgument,
// not UB.

#ifndef DEEPSURF_REMOTE_WIRE_H_
#define DEEPSURF_REMOTE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "index/search_index.h"
#include "util/result.h"

namespace deepsurf {
namespace remote {

/// First byte of every frame.
enum class MessageType : uint8_t {
  kSearchRequest = 1,
  kSearchResponse = 2,
  /// Retired with the per-query stats round (the coordinator now keeps
  /// corpus statistics at ingest). PeekType rejects them, and the
  /// numbers stay reserved so no later frame reuses them.
  kStatsRequest = 3,
  kStatsResponse = 4,
  kIngestRequest = 5,
  kIngestResponse = 6,
  kHealthRequest = 7,
  kHealthResponse = 8,
  /// Retired with the shard servers' journals (catch-up replays from the
  /// coordinator's log alone); rejected and reserved like kStats*.
  kFetchRequest = 9,
  kFetchResponse = 10,
};

/// Top-k query against one shard, scored with the coordinator-supplied
/// corpus-wide statistics (stats.term_df is parallel to `terms`).
///
/// Trace propagation (obs/trace.h): when the query is being traced,
/// `trace_id` is nonzero and the frame grows an optional trailing
/// [trace_id, parent_span, trace_flags] section. An untraced request
/// (trace_id == 0) omits the section entirely, so its bytes are
/// identical to pre-trace frames — and decoders accept both forms, so
/// old frames stay decodable. A tail that carries trace_id 0 is
/// rejected: it would re-encode without the tail.
struct SearchRequest {
  std::vector<std::string> terms;
  uint64_t k = 0;
  index::CorpusStats stats;
  uint64_t trace_id = 0;     ///< 0 = untraced (no trace tail encoded)
  uint64_t parent_span = 0;  ///< caller's span this work belongs under
  uint8_t trace_flags = 0;   ///< bit 0: sampled
};

/// Ranked hits from one shard; doc ids are shard-local.
///
/// When the request carried a nonzero trace_id, the server measures the
/// request's queue wait and scoring time plus the per-query block-decode
/// counters and returns them in an optional trailing timing section
/// (has_timing) — how shard-server spans travel back to the
/// coordinator's trace without a second RPC. Untraced responses omit
/// the section and stay byte-identical to pre-trace frames.
struct SearchResponse {
  std::vector<index::SearchHit> hits;
  bool has_timing = false;
  uint64_t queue_us = 0;        ///< time from enqueue to worker pickup
  uint64_t score_us = 0;        ///< time inside DAAT scoring
  uint64_t blocks_decoded = 0;  ///< index counter delta across the call
  uint64_t blocks_skipped = 0;
};

/// One replicated ingest batch. `seq` is the per-shard batch sequence
/// number; servers apply batches exactly once in sequence order and
/// replay the stored response for a re-sent seq, which is what makes
/// coordinator retries safe when a response (not the request) was lost.
struct IngestRequest {
  uint64_t seq = 0;
  std::vector<index::Document> docs;
};

/// Per-document outcome of an ingest batch, in batch order. `lengths`
/// carries each document's content-token count so the coordinator can
/// maintain its DocInfo mirror without re-tokenizing.
struct IngestResponse {
  uint64_t seq = 0;
  std::vector<uint32_t> local_ids;
  std::vector<uint8_t> newly_added;  ///< 0/1 per doc
  std::vector<uint32_t> lengths;
};

struct HealthRequest {
  /// When set, the response carries the index's memory accounting —
  /// an O(vocabulary) walk on the server, so plain liveness probes
  /// leave it off and the response's `memory` stays zeroed.
  bool include_memory = false;
};

/// Shard-node health snapshot. The memory fields mirror
/// index::IndexMemoryUsage so a coordinator can account the cluster's
/// logical corpus (one replica per shard) without a dedicated RPC;
/// `search` carries the replica's cumulative index::SearchStats (O(1)
/// counters, always included) so block-decode and decode-cache activity
/// stay observable across the wire — the traffic harness reads them
/// per phase through Coordinator::search_stats(). A server's load
/// counts (queue depth, served, rejected, cancelled) stay in its own
/// `shard.*` registry.
struct HealthResponse {
  uint64_t num_docs = 0;
  uint64_t epoch = 0;
  uint64_t last_applied_seq = 0;
  index::IndexMemoryUsage memory;
  index::SearchStats search;
};

/// Message type of a frame (its first byte); InvalidArgument for an
/// empty frame or an unknown or retired type.
Result<MessageType> PeekType(const std::string& frame);

std::string Encode(const SearchRequest& msg);
std::string Encode(const SearchResponse& msg);
std::string Encode(const IngestRequest& msg);
std::string Encode(const IngestResponse& msg);
std::string Encode(const HealthRequest& msg);
std::string Encode(const HealthResponse& msg);

Result<SearchRequest> DecodeSearchRequest(const std::string& frame);
Result<SearchResponse> DecodeSearchResponse(const std::string& frame);
Result<IngestRequest> DecodeIngestRequest(const std::string& frame);
Result<IngestResponse> DecodeIngestResponse(const std::string& frame);
Result<HealthRequest> DecodeHealthRequest(const std::string& frame);
Result<HealthResponse> DecodeHealthResponse(const std::string& frame);

}  // namespace remote
}  // namespace deepsurf

#endif  // DEEPSURF_REMOTE_WIRE_H_
