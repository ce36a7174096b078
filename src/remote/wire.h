// Copyright 2026 The deepsurf Authors.
//
// Deterministic binary wire format for the shard-serving RPC boundary.
// Every message a coordinator and a shard server exchange — search
// requests (carrying the corpus-wide BM25 statistics that keep sharded
// scoring exact), scored-hit responses, replicated ingest batches,
// catch-up fetches, and health probes — is encoded as one
// self-describing frame: a MessageType byte followed by fixed-layout
// little-endian fields.
//
// The format is designed for the repo's signature contract (distribution
// must not change a single result bit):
//   * doubles travel as their raw IEEE-754 bit patterns (memcpy through
//     uint64_t), so scores and corpus statistics round-trip exactly —
//     including NaNs, denormals, and negative zero;
//   * integers are fixed-width little-endian, strings are
//     length-prefixed byte runs — no locale, no text formatting, no
//     platform-dependent layout;
//   * encoding the same message twice yields the same bytes, so frames
//     can be compared, cached, and replayed (ingest idempotence keys on
//     this).
//
// Decoders never trust the peer: every read is bounds-checked and a
// malformed or truncated frame yields InvalidArgument, not UB.

#ifndef DEEPSURF_REMOTE_WIRE_H_
#define DEEPSURF_REMOTE_WIRE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "index/search_index.h"
#include "remote/ingest_log.h"
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
/// old frames stay decodable.
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

/// Asks a node for the ingest batches a stale replica missed: the
/// retained write-ahead log records (remote/ingest_log.h) from
/// `from_seq` onward. This is the catch-up protocol's read side — the
/// coordinator streams these to a revived replica, which re-applies
/// them through the ordinary idempotent ingest path.
struct FetchRequest {
  uint64_t from_seq = 0;   ///< first batch seq wanted
  uint64_t max_bytes = 0;  ///< payload-byte budget; 0 = server default
};

/// The answering node's batch window plus the records themselves.
/// `records` starts exactly at the requested seq and is contiguous; it
/// is empty when the request fell outside the retained window —
/// `log_first_seq` then tells the caller whether the history was
/// trimmed (from_seq < log_first_seq) or never written (from_seq >
/// head_seq).
struct FetchResponse {
  uint64_t head_seq = 0;       ///< server's last applied batch seq
  uint64_t log_first_seq = 0;  ///< oldest retained record; 0 = log empty
  std::vector<IngestLogRecord> records;
};

struct HealthRequest {
  /// When set, the response carries the index's memory accounting —
  /// an O(vocabulary) walk on the server, so plain liveness probes
  /// leave it off and the response's `memory` stays zeroed.
  bool include_memory = false;
};

/// Shard-node health and load snapshot. The memory fields mirror
/// index::IndexMemoryUsage so a coordinator can account the cluster's
/// logical corpus (one replica per shard) without a dedicated RPC;
/// `search` carries the replica's cumulative index::SearchStats (O(1)
/// counters, always included) so block-decode and decode-cache activity
/// stay observable across the wire — the traffic harness reads them
/// per phase through Coordinator::search_stats().
struct HealthResponse {
  uint64_t num_docs = 0;
  uint64_t epoch = 0;
  uint64_t last_applied_seq = 0;
  uint64_t queue_depth = 0;
  uint64_t requests_served = 0;
  uint64_t requests_rejected = 0;
  uint64_t requests_cancelled = 0;
  /// Write-ahead log window (remote/ingest_log.h): the batch history
  /// this node can still serve to a catching-up peer, and its cost.
  uint64_t wal_first_seq = 0;  ///< oldest retained record; 0 = log empty
  uint64_t wal_last_seq = 0;
  uint64_t wal_bytes = 0;
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
std::string Encode(const FetchRequest& msg);
std::string Encode(const FetchResponse& msg);

Result<SearchRequest> DecodeSearchRequest(const std::string& frame);
Result<SearchResponse> DecodeSearchResponse(const std::string& frame);
Result<IngestRequest> DecodeIngestRequest(const std::string& frame);
Result<IngestResponse> DecodeIngestResponse(const std::string& frame);
Result<HealthRequest> DecodeHealthRequest(const std::string& frame);
Result<HealthResponse> DecodeHealthResponse(const std::string& frame);
Result<FetchRequest> DecodeFetchRequest(const std::string& frame);
Result<FetchResponse> DecodeFetchResponse(const std::string& frame);

}  // namespace remote
}  // namespace deepsurf

#endif  // DEEPSURF_REMOTE_WIRE_H_
