#include "remote/wire.h"

#include <cstring>

namespace deepsurf {
namespace remote {

namespace {

// --- Encoding primitives: fixed-width little-endian, explicit bytes. ---

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int shift = 0; shift < 32; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((v >> shift) & 0xff));
  }
}

/// Raw IEEE-754 bits — the only encoding that round-trips a double
/// exactly (printf/parse would not).
void PutDouble(std::string* out, double v) {
  uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

void PutString(std::string* out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// --- Decoding: a bounds-checked cursor; any violation poisons it. ---

struct Reader {
  const std::string& buf;
  size_t pos = 0;
  bool ok = true;

  explicit Reader(const std::string& b) : buf(b) {}

  bool Ensure(size_t n) {
    if (!ok || buf.size() - pos < n) ok = false;
    return ok;
  }

  uint8_t GetU8() {
    if (!Ensure(1)) return 0;
    return static_cast<uint8_t>(buf[pos++]);
  }

  uint32_t GetU32() {
    if (!Ensure(4)) return 0;
    uint32_t v = 0;
    for (int shift = 0; shift < 32; shift += 8) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[pos++])) << shift;
    }
    return v;
  }

  uint64_t GetU64() {
    if (!Ensure(8)) return 0;
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 8) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[pos++])) << shift;
    }
    return v;
  }

  /// A flag byte: 0 or 1. Any other value would decode but re-encode
  /// differently, so it poisons the read.
  bool GetBool() {
    uint8_t v = GetU8();
    if (v > 1) ok = false;
    return v == 1;
  }

  double GetDouble() {
    uint64_t bits = GetU64();
    double v = 0.0;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }

  std::string GetString() {
    uint32_t n = GetU32();
    if (!Ensure(n)) return {};
    std::string s = buf.substr(pos, n);
    pos += n;
    return s;
  }

  /// Element count of a vector about to be read; bounded by the bytes
  /// remaining so a hostile length cannot trigger a huge allocation.
  uint32_t GetCount(size_t min_element_bytes) {
    uint32_t n = GetU32();
    if (min_element_bytes > 0 &&
        static_cast<size_t>(n) > (buf.size() - pos) / min_element_bytes) {
      ok = false;
      return 0;
    }
    return n;
  }

  /// True iff every byte was consumed without a bounds violation.
  bool Done() const { return ok && pos == buf.size(); }
};

bool CheckType(Reader* r, MessageType want) {
  return static_cast<MessageType>(r->GetU8()) == want && r->ok;
}

Status Malformed(const char* what) {
  return Status::InvalidArgument(std::string("malformed wire frame: ") + what);
}

void PutTerms(std::string* out, const std::vector<std::string>& terms) {
  PutU32(out, static_cast<uint32_t>(terms.size()));
  for (const auto& t : terms) PutString(out, t);
}

std::vector<std::string> GetTerms(Reader* r) {
  uint32_t n = r->GetCount(4);  // each term costs at least its length prefix
  std::vector<std::string> terms;
  terms.reserve(n);
  for (uint32_t i = 0; i < n && r->ok; ++i) terms.push_back(r->GetString());
  return terms;
}

}  // namespace

Result<MessageType> PeekType(const std::string& frame) {
  if (frame.empty()) return Malformed("empty frame");
  auto type = static_cast<MessageType>(static_cast<uint8_t>(frame[0]));
  switch (type) {
    case MessageType::kSearchRequest:
    case MessageType::kSearchResponse:
    case MessageType::kIngestRequest:
    case MessageType::kIngestResponse:
    case MessageType::kHealthRequest:
    case MessageType::kHealthResponse:
      return type;
    case MessageType::kStatsRequest:
    case MessageType::kStatsResponse:
    case MessageType::kFetchRequest:
    case MessageType::kFetchResponse:
      return Malformed("retired message type");
  }
  return Malformed("unknown message type");
}

std::string Encode(const SearchRequest& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MessageType::kSearchRequest));
  PutTerms(&out, msg.terms);
  PutU64(&out, msg.k);
  PutDouble(&out, msg.stats.num_docs);
  PutDouble(&out, msg.stats.total_length);
  PutU32(&out, static_cast<uint32_t>(msg.stats.term_df.size()));
  for (size_t df : msg.stats.term_df) {
    PutU64(&out, static_cast<uint64_t>(df));
  }
  // Optional trace tail — only for traced requests, so untraced frames
  // keep their pre-trace bytes (idempotence hashing and frame replay
  // compare bytes).
  if (msg.trace_id != 0) {
    PutU64(&out, msg.trace_id);
    PutU64(&out, msg.parent_span);
    PutU8(&out, msg.trace_flags);
  }
  return out;
}

Result<SearchRequest> DecodeSearchRequest(const std::string& frame) {
  Reader r(frame);
  if (!CheckType(&r, MessageType::kSearchRequest)) {
    return Malformed("not a SearchRequest");
  }
  SearchRequest msg;
  msg.terms = GetTerms(&r);
  msg.k = r.GetU64();
  msg.stats.num_docs = r.GetDouble();
  msg.stats.total_length = r.GetDouble();
  uint32_t dfs = r.GetCount(8);
  msg.stats.term_df.reserve(dfs);
  for (uint32_t i = 0; i < dfs && r.ok; ++i) {
    msg.stats.term_df.push_back(static_cast<size_t>(r.GetU64()));
  }
  // Bytes past the legacy fields are the optional trace tail; a frame
  // from before tracing simply ends here and decodes as untraced.
  if (r.ok && r.pos < r.buf.size()) {
    msg.trace_id = r.GetU64();
    msg.parent_span = r.GetU64();
    msg.trace_flags = r.GetU8();
    // Encode writes the tail only for a nonzero trace_id.
    if (r.ok && msg.trace_id == 0) {
      return Malformed("SearchRequest trace tail with trace_id 0");
    }
  }
  if (!r.Done()) return Malformed("truncated SearchRequest");
  return msg;
}

std::string Encode(const SearchResponse& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MessageType::kSearchResponse));
  PutU32(&out, static_cast<uint32_t>(msg.hits.size()));
  for (const auto& hit : msg.hits) {
    PutU32(&out, hit.doc);
    PutDouble(&out, hit.score);
  }
  // Optional timing tail: present only when the server measured the
  // request (it was traced), so untraced responses keep their
  // pre-trace bytes.
  if (msg.has_timing) {
    PutU64(&out, msg.queue_us);
    PutU64(&out, msg.score_us);
    PutU64(&out, msg.blocks_decoded);
    PutU64(&out, msg.blocks_skipped);
  }
  return out;
}

Result<SearchResponse> DecodeSearchResponse(const std::string& frame) {
  Reader r(frame);
  if (!CheckType(&r, MessageType::kSearchResponse)) {
    return Malformed("not a SearchResponse");
  }
  SearchResponse msg;
  uint32_t n = r.GetCount(12);
  msg.hits.reserve(n);
  for (uint32_t i = 0; i < n && r.ok; ++i) {
    index::SearchHit hit;
    hit.doc = r.GetU32();
    hit.score = r.GetDouble();
    msg.hits.push_back(hit);
  }
  if (r.ok && r.pos < r.buf.size()) {
    msg.has_timing = true;
    msg.queue_us = r.GetU64();
    msg.score_us = r.GetU64();
    msg.blocks_decoded = r.GetU64();
    msg.blocks_skipped = r.GetU64();
  }
  if (!r.Done()) return Malformed("truncated SearchResponse");
  return msg;
}

std::string Encode(const IngestRequest& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MessageType::kIngestRequest));
  PutU64(&out, msg.seq);
  PutU32(&out, static_cast<uint32_t>(msg.docs.size()));
  for (const auto& d : msg.docs) {
    PutString(&out, d.url);
    PutString(&out, d.title);
    PutString(&out, d.body);
    PutU8(&out, d.is_deep_web ? 1 : 0);
    PutString(&out, d.source_host);
  }
  return out;
}

Result<IngestRequest> DecodeIngestRequest(const std::string& frame) {
  Reader r(frame);
  if (!CheckType(&r, MessageType::kIngestRequest)) {
    return Malformed("not an IngestRequest");
  }
  IngestRequest msg;
  msg.seq = r.GetU64();
  uint32_t n = r.GetCount(17);  // 4 length prefixes + the deep-web flag
  msg.docs.reserve(n);
  for (uint32_t i = 0; i < n && r.ok; ++i) {
    index::Document d;
    d.url = r.GetString();
    d.title = r.GetString();
    d.body = r.GetString();
    d.is_deep_web = r.GetBool();
    d.source_host = r.GetString();
    msg.docs.push_back(std::move(d));
  }
  if (!r.Done()) return Malformed("truncated IngestRequest");
  return msg;
}

std::string Encode(const IngestResponse& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MessageType::kIngestResponse));
  PutU64(&out, msg.seq);
  PutU32(&out, static_cast<uint32_t>(msg.local_ids.size()));
  for (uint32_t id : msg.local_ids) PutU32(&out, id);
  PutU32(&out, static_cast<uint32_t>(msg.newly_added.size()));
  for (uint8_t b : msg.newly_added) PutU8(&out, b);
  PutU32(&out, static_cast<uint32_t>(msg.lengths.size()));
  for (uint32_t len : msg.lengths) PutU32(&out, len);
  return out;
}

Result<IngestResponse> DecodeIngestResponse(const std::string& frame) {
  Reader r(frame);
  if (!CheckType(&r, MessageType::kIngestResponse)) {
    return Malformed("not an IngestResponse");
  }
  IngestResponse msg;
  msg.seq = r.GetU64();
  uint32_t ids = r.GetCount(4);
  msg.local_ids.reserve(ids);
  for (uint32_t i = 0; i < ids && r.ok; ++i) {
    msg.local_ids.push_back(r.GetU32());
  }
  uint32_t flags = r.GetCount(1);
  msg.newly_added.reserve(flags);
  for (uint32_t i = 0; i < flags && r.ok; ++i) {
    msg.newly_added.push_back(r.GetU8());
  }
  uint32_t lens = r.GetCount(4);
  msg.lengths.reserve(lens);
  for (uint32_t i = 0; i < lens && r.ok; ++i) {
    msg.lengths.push_back(r.GetU32());
  }
  if (!r.Done()) return Malformed("truncated IngestResponse");
  // The three vectors are parallel per document; an ack where they
  // disagree is malformed, and rejecting it here keeps every consumer
  // free to index them uniformly.
  if (msg.newly_added.size() != msg.local_ids.size() ||
      msg.lengths.size() != msg.local_ids.size()) {
    return Malformed("IngestResponse vectors disagree on batch size");
  }
  return msg;
}

std::string Encode(const HealthRequest& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MessageType::kHealthRequest));
  PutU8(&out, msg.include_memory ? 1 : 0);
  return out;
}

Result<HealthRequest> DecodeHealthRequest(const std::string& frame) {
  Reader r(frame);
  if (!CheckType(&r, MessageType::kHealthRequest)) {
    return Malformed("not a HealthRequest");
  }
  HealthRequest msg;
  msg.include_memory = r.GetBool();
  if (!r.Done()) return Malformed("truncated HealthRequest");
  return msg;
}

std::string Encode(const HealthResponse& msg) {
  std::string out;
  PutU8(&out, static_cast<uint8_t>(MessageType::kHealthResponse));
  PutU64(&out, msg.num_docs);
  PutU64(&out, msg.epoch);
  PutU64(&out, msg.last_applied_seq);
  PutU64(&out, msg.memory.posting_doc_raw_bytes);
  PutU64(&out, msg.memory.posting_doc_packed_bytes);
  PutU64(&out, msg.memory.posting_weight_bytes);
  PutU64(&out, msg.memory.posting_block_bytes);
  PutU64(&out, msg.memory.dictionary_bytes);
  PutU64(&out, msg.memory.norm_cache_bytes);
  PutU64(&out, msg.memory.decode_cache_bytes);
  PutU64(&out, msg.memory.num_postings);
  PutU64(&out, msg.search.queries);
  PutU64(&out, msg.search.blocks_decoded);
  PutU64(&out, msg.search.blocks_skipped);
  PutU64(&out, msg.search.decode_cache_hits);
  return out;
}

Result<HealthResponse> DecodeHealthResponse(const std::string& frame) {
  Reader r(frame);
  if (!CheckType(&r, MessageType::kHealthResponse)) {
    return Malformed("not a HealthResponse");
  }
  HealthResponse msg;
  msg.num_docs = r.GetU64();
  msg.epoch = r.GetU64();
  msg.last_applied_seq = r.GetU64();
  msg.memory.posting_doc_raw_bytes = r.GetU64();
  msg.memory.posting_doc_packed_bytes = r.GetU64();
  msg.memory.posting_weight_bytes = r.GetU64();
  msg.memory.posting_block_bytes = r.GetU64();
  msg.memory.dictionary_bytes = r.GetU64();
  msg.memory.norm_cache_bytes = r.GetU64();
  msg.memory.decode_cache_bytes = r.GetU64();
  msg.memory.num_postings = r.GetU64();
  msg.search.queries = r.GetU64();
  msg.search.blocks_decoded = r.GetU64();
  msg.search.blocks_skipped = r.GetU64();
  msg.search.decode_cache_hits = r.GetU64();
  if (!r.Done()) return Malformed("truncated HealthResponse");
  return msg;
}

}  // namespace remote
}  // namespace deepsurf
