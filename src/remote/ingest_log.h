// Copyright 2026 The deepsurf Authors.
//
// The per-shard ingest log: an in-memory, sequence-numbered replay
// window of the ingest batches a coordinator has committed to a shard
// but not yet seen every replica acknowledge. It is the one source the
// distributed layer's recovery replays from:
//   * the coordinator appends each batch's request frame *before*
//     dispatching it, so a partially-acked batch is driven to completion
//     by replay instead of rolled back — ingest is exactly-once from the
//     caller's view;
//   * catch-up streams a stale replica the records it missed, and the
//     replica re-applies them through its idempotent seq path;
//   * once every live replica has acked a batch, no replay can need it,
//     and the coordinator trims the head through the lowest ack
//     (`TrimThrough`). A stale or dead replica holds the log at its last
//     ack, so the log is exactly the history some replica still lacks.
//
// Sequence numbers are strictly consecutive (`Append` refuses gaps), so
// the log is a contiguous window [first_seq, last_seq] of the shard's
// batch history, and it can answer "replay from seq N" exactly when N
// falls inside the window. Nothing is written to disk: the log lives
// and dies with its coordinator.
//
// The class does no locking; the coordinator guards each shard's log
// with its corpus lock.

#ifndef DEEPSURF_REMOTE_INGEST_LOG_H_
#define DEEPSURF_REMOTE_INGEST_LOG_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <string>
#include <vector>

#include "util/result.h"

namespace deepsurf {
namespace remote {

/// One retained record: a batch seq and the exact ingest frame bytes
/// committed under it.
struct IngestLogRecord {
  uint64_t seq = 0;
  std::string payload;
};

class IngestLog {
 public:
  /// Appends one record. `seq` must be exactly last_seq() + 1 on a
  /// non-empty log (any positive seq seeds an empty one — after a trim
  /// to empty, the window restarts wherever the next batch lands).
  Status Append(uint64_t seq, std::string payload);

  bool empty() const { return records_.empty(); }
  size_t num_records() const { return records_.size(); }
  /// Payload bytes of the retained window.
  size_t size_bytes() const { return size_bytes_; }
  /// Oldest / newest retained seq; 0 when empty.
  uint64_t first_seq() const { return records_.empty() ? 0 : records_.front().seq; }
  uint64_t last_seq() const { return records_.empty() ? 0 : records_.back().seq; }
  /// Drops every record with seq <= `seq` (the head of the window that
  /// every replica has acked). A seq before the window is a no-op; one
  /// at or past last_seq() empties the log, and the next Append may then
  /// seed it at any positive seq.
  void TrimThrough(uint64_t seq);

  /// Contiguous records starting exactly at `from_seq`, up to
  /// `max_payload_bytes` of payload (at least one record when available,
  /// so one oversized batch can't starve replay). Empty when `from_seq`
  /// is outside the retained window — in particular when it was already
  /// trimmed, which a caller must treat as "this log can no longer heal
  /// that replica".
  std::vector<IngestLogRecord> Read(uint64_t from_seq,
                                    size_t max_payload_bytes) const;

 private:
  std::deque<IngestLogRecord> records_;
  size_t size_bytes_ = 0;
};

}  // namespace remote
}  // namespace deepsurf

#endif  // DEEPSURF_REMOTE_INGEST_LOG_H_
