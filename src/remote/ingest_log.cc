#include "remote/ingest_log.h"

#include <cstring>

#include "util/hash.h"

namespace deepsurf {
namespace remote {

namespace {

// "DWL1" on disk (little-endian u32): deepsurf write-ahead log, v1.
constexpr uint32_t kRecordMagic = 0x314c5744;
constexpr size_t kHeaderBytes = IngestLog::kHeaderBytes;

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

uint32_t GetU32(const std::string& buf, size_t pos) {
  uint32_t v = 0;
  for (int shift = 0; shift < 32; shift += 8) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(buf[pos++])) << shift;
  }
  return v;
}

uint64_t GetU64(const std::string& buf, size_t pos) {
  uint64_t v = 0;
  for (int shift = 0; shift < 64; shift += 8) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(buf[pos++])) << shift;
  }
  return v;
}

size_t EncodedSize(const IngestLogRecord& rec) {
  return kHeaderBytes + rec.payload.size();
}

void EncodeRecord(std::string* out, const IngestLogRecord& rec) {
  PutU32(out, kRecordMagic);
  PutU64(out, rec.seq);
  PutU32(out, static_cast<uint32_t>(rec.payload.size()));
  PutU64(out, Fnv1a64(rec.payload));
  out->append(rec.payload);
}

}  // namespace

Status IngestLog::Append(uint64_t seq, std::string payload) {
  if (seq == 0) {
    return Status::InvalidArgument("ingest log seq 0 is reserved for 'none'");
  }
  if (!records_.empty() && seq != records_.back().seq + 1) {
    return Status::FailedPrecondition(
        "ingest log append out of sequence: got " + std::to_string(seq) +
        ", expected " + std::to_string(records_.back().seq + 1));
  }
  IngestLogRecord rec;
  rec.seq = seq;
  rec.payload = std::move(payload);
  size_bytes_ += EncodedSize(rec);
  records_.push_back(std::move(rec));
  return Status::OK();
}

void IngestLog::TrimThrough(uint64_t seq) {
  while (!records_.empty() && records_.front().seq <= seq) {
    size_bytes_ -= EncodedSize(records_.front());
    records_.pop_front();
  }
}

std::vector<IngestLogRecord> IngestLog::Read(uint64_t from_seq,
                                             size_t max_payload_bytes) const {
  std::vector<IngestLogRecord> out;
  if (records_.empty() || from_seq < records_.front().seq ||
      from_seq > records_.back().seq) {
    return out;
  }
  size_t start = static_cast<size_t>(from_seq - records_.front().seq);
  size_t payload_bytes = 0;
  for (size_t i = start; i < records_.size(); ++i) {
    if (!out.empty() && payload_bytes + records_[i].payload.size() >
                            max_payload_bytes) {
      break;
    }
    out.push_back(records_[i]);
    payload_bytes += records_[i].payload.size();
  }
  return out;
}

std::string IngestLog::Serialize() const {
  std::string out;
  out.reserve(size_bytes_);
  for (const auto& rec : records_) EncodeRecord(&out, rec);
  return out;
}

IngestLog::RecoveryReport IngestLog::Restore(const std::string& image) {
  records_.clear();
  size_bytes_ = 0;

  RecoveryReport report;
  size_t pos = 0;
  while (pos < image.size()) {
    // Every field is validated before use; the first violation ends the
    // scan and rejects everything from this record on.
    if (image.size() - pos < kHeaderBytes) break;
    if (GetU32(image, pos) != kRecordMagic) break;
    uint64_t seq = GetU64(image, pos + 4);
    uint32_t payload_size = GetU32(image, pos + 12);
    uint64_t checksum = GetU64(image, pos + 16);
    if (image.size() - pos - kHeaderBytes < payload_size) break;  // truncated
    if (seq == 0) break;
    if (!records_.empty() && seq != records_.back().seq + 1) break;
    std::string payload = image.substr(pos + kHeaderBytes, payload_size);
    if (Fnv1a64(payload) != checksum) break;  // torn or bit-rotted payload
    IngestLogRecord rec;
    rec.seq = seq;
    rec.payload = std::move(payload);
    size_bytes_ += EncodedSize(rec);
    records_.push_back(std::move(rec));
    pos += kHeaderBytes + payload_size;
  }
  report.records = records_.size();
  report.dropped_bytes = image.size() - pos;
  report.torn_tail = report.dropped_bytes > 0;
  return report;
}

}  // namespace remote
}  // namespace deepsurf
