#include "remote/ingest_log.h"

#include <utility>

namespace deepsurf {
namespace remote {

Status IngestLog::Append(uint64_t seq, std::string payload) {
  if (seq == 0) {
    return Status::InvalidArgument("ingest log seq 0 is reserved for 'none'");
  }
  if (!records_.empty() && seq != records_.back().seq + 1) {
    return Status::FailedPrecondition(
        "ingest log append out of sequence: got " + std::to_string(seq) +
        ", expected " + std::to_string(records_.back().seq + 1));
  }
  size_bytes_ += payload.size();
  records_.push_back(IngestLogRecord{seq, std::move(payload)});
  return Status::OK();
}

void IngestLog::TrimThrough(uint64_t seq) {
  while (!records_.empty() && records_.front().seq <= seq) {
    size_bytes_ -= records_.front().payload.size();
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

}  // namespace remote
}  // namespace deepsurf
