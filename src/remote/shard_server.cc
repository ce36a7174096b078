#include "remote/shard_server.h"

#include <algorithm>
#include <utility>

#include "util/hash.h"
#include "util/logging.h"

namespace deepsurf {
namespace remote {

ShardServer::ShardServer(ShardServerOptions options)
    : options_(options), index_(options.index), wal_(options.wal) {
  c_served_ = metrics_.counter("shard.served");
  c_rejected_ = metrics_.counter("shard.rejected");
  c_cancelled_ = metrics_.counter("shard.cancelled");
  c_searches_ = metrics_.counter("shard.searches");
  c_ingest_batches_ = metrics_.counter("shard.ingest_batches");
  c_ingest_replays_ = metrics_.counter("shard.ingest_replays");
  c_fetches_ = metrics_.counter("shard.fetches");
  c_health_checks_ = metrics_.counter("shard.health_checks");
  c_decode_errors_ = metrics_.counter("shard.decode_errors");
  g_queue_depth_ = metrics_.gauge("shard.queue_depth");
  h_queue_wait_ms_ = metrics_.histogram("shard.queue_wait_ms");
  size_t workers = std::max<size_t>(1, options_.num_workers);
  workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    workers_.emplace_back(&ShardServer::WorkerLoop, this);
  }
}

ShardServer::~ShardServer() {
  std::deque<PendingRequest> orphaned;
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    orphaned.swap(queue_);
  }
  cv_.notify_all();
  for (auto& t : workers_) t.join();
  g_queue_depth_->Set(0);
  // Whatever was still queued never ran; its callers must hear so.
  for (auto& req : orphaned) {
    req.done(Status::Aborted("shard server shut down"));
  }
}

void ShardServer::Enqueue(std::string request, Callback done,
                          CancelToken cancelled) {
  bool shutting_down;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!stop_ && queue_.size() < options_.max_queue) {
      queue_.push_back(
          PendingRequest{std::move(request), std::move(done),
                         std::move(cancelled),
                         std::chrono::steady_clock::now()});
      g_queue_depth_->Add(1);
      cv_.notify_one();
      return;
    }
    shutting_down = stop_;
    if (!shutting_down) c_rejected_->Inc();
  }
  // Reject outside the lock: the callback may do arbitrary work.
  done(shutting_down
           ? Status::Aborted("shard server shut down")
           : Status::ResourceExhausted("shard request queue full"));
}

void ShardServer::WorkerLoop() {
  for (;;) {
    PendingRequest req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [&] { return stop_ || (!queue_.empty() && !paused_); });
      if (stop_) return;
      req = std::move(queue_.front());
      queue_.pop_front();
    }
    g_queue_depth_->Add(-1);
    const uint64_t queue_us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - req.enqueued)
            .count());
    h_queue_wait_ms_->Observe(static_cast<double>(queue_us) / 1000.0);
    if (req.cancelled != nullptr &&
        req.cancelled->load(std::memory_order_relaxed)) {
      c_cancelled_->Inc();
      req.done(Status::Aborted("request cancelled by caller"));
      continue;
    }
    auto response = Handle(req.bytes, queue_us);
    c_served_->Inc();
    if (!response.ok() && response.status().IsInvalidArgument()) {
      c_decode_errors_->Inc();
    }
    req.done(std::move(response));
  }
}

Result<std::string> ShardServer::Handle(const std::string& request,
                                        uint64_t queue_us) {
  auto type = PeekType(request);
  if (!type.ok()) return type.status();
  switch (*type) {
    case MessageType::kSearchRequest:
      return HandleSearch(request, queue_us);
    case MessageType::kIngestRequest:
      return HandleIngest(request);
    case MessageType::kHealthRequest:
      return HandleHealth(request);
    case MessageType::kFetchRequest:
      return HandleFetch(request);
    default:
      return Status::InvalidArgument("frame is a response, not a request");
  }
}

Result<std::string> ShardServer::HandleSearch(const std::string& request,
                                              uint64_t queue_us) {
  auto req = DecodeSearchRequest(request);
  if (!req.ok()) return req.status();
  // Never trust the peer: a wire-valid frame can still carry stats that
  // don't fit the query, and that must be an error response, not the
  // DS_CHECK abort it would trigger inside the index.
  if (!req->stats.term_df.empty() &&
      req->stats.term_df.size() != req->terms.size()) {
    return Status::InvalidArgument(
        "SearchRequest term_df arity does not match its terms");
  }
  c_searches_->Inc();
  const bool traced = req->trace_id != 0;
  SearchResponse resp;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    // Traced requests measure the scoring time and the per-call
    // block-decode delta so the coordinator can attach a shard-server
    // span to the query's trace. The counter delta is exact for a lone
    // request; concurrent searches under the shared lock can bleed into
    // it (documented, and irrelevant for the timing split).
    index::SearchStats before;
    std::chrono::steady_clock::time_point t0;
    if (traced) {
      before = index_.search_stats();
      t0 = std::chrono::steady_clock::now();
    }
    resp.hits = index_.SearchTermsScored(req->terms,
                                         static_cast<size_t>(req->k),
                                         &req->stats);
    if (traced) {
      index::SearchStats after = index_.search_stats();
      resp.has_timing = true;
      resp.queue_us = queue_us;
      resp.score_us = static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - t0)
              .count());
      resp.blocks_decoded = after.blocks_decoded - before.blocks_decoded;
      resp.blocks_skipped = after.blocks_skipped - before.blocks_skipped;
    }
  }
  return Encode(resp);
}

Result<std::string> ShardServer::HandleIngest(const std::string& request) {
  auto req = DecodeIngestRequest(request);
  if (!req.ok()) return req.status();

  const uint64_t request_hash = Fnv1a64(request);
  std::unique_lock<std::shared_mutex> lock(index_mu_);
  if (req->seq == last_applied_seq_ && !last_ingest_response_.empty()) {
    if (request_hash != last_ingest_request_hash_) {
      // Same seq, different batch: someone is trying to commit different
      // content under a number this replica already applied. Replaying
      // the stored response would silently map the new documents onto
      // the old batch's local ids — refuse loudly instead. (The
      // coordinator treats this refusal as proof of divergence.)
      return Status::FailedPrecondition(
          "ingest seq " + std::to_string(req->seq) +
          " re-used for a different batch; this replica already applied "
          "other content under it");
    }
    // A retry whose response got lost: replay, do not re-apply.
    c_ingest_replays_->Inc();
    return last_ingest_response_;
  }
  if (req->seq != last_applied_seq_ + 1) {
    return Status::FailedPrecondition(
        "ingest batch out of sequence: got " + std::to_string(req->seq) +
        ", expected " + std::to_string(last_applied_seq_ + 1));
  }

  IngestResponse resp;
  resp.seq = req->seq;
  resp.local_ids.reserve(req->docs.size());
  resp.newly_added.reserve(req->docs.size());
  resp.lengths.reserve(req->docs.size());
  for (const auto& d : req->docs) {
    size_t before = index_.num_docs();
    auto id = index_.AddDocument(d.url, d.title, d.body, d.is_deep_web,
                                 d.source_host);
    if (!id.ok()) return id.status();
    resp.local_ids.push_back(*id);
    resp.newly_added.push_back(index_.num_docs() > before ? 1 : 0);
    resp.lengths.push_back(index_.doc_ref(*id).length);
  }
  last_applied_seq_ = req->seq;
  last_ingest_request_hash_ = request_hash;
  last_ingest_response_ = Encode(resp);
  // Journal the applied batch verbatim: the WAL's window is what this
  // node can stream to a catching-up peer. Append cannot fail here —
  // the seq discipline above guarantees consecutive appends.
  DS_CHECK_OK(wal_.Append(req->seq, request));
  c_ingest_batches_->Inc();
  return last_ingest_response_;
}

Result<std::string> ShardServer::HandleHealth(const std::string& request) {
  auto req = DecodeHealthRequest(request);
  if (!req.ok()) return req.status();
  HealthResponse resp;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    resp.num_docs = index_.num_docs();
    resp.epoch = index_.ingest_epoch();
    resp.last_applied_seq = last_applied_seq_;
    resp.wal_first_seq = wal_.first_seq();
    resp.wal_last_seq = wal_.last_seq();
    resp.wal_bytes = wal_.size_bytes();
    // Memory accounting walks every posting list and the dictionary —
    // only on request, so plain liveness probes stay O(1). Search
    // counters are O(1) reads and always travel.
    if (req->include_memory) resp.memory = index_.MemoryUsage();
    resp.search = index_.search_stats();
  }
  c_health_checks_->Inc();
  {
    std::lock_guard<std::mutex> lock(mu_);
    resp.queue_depth = queue_.size();
  }
  resp.requests_served = c_served_->Value();
  resp.requests_rejected = c_rejected_->Value();
  resp.requests_cancelled = c_cancelled_->Value();
  return Encode(resp);
}

Result<std::string> ShardServer::HandleFetch(const std::string& request) {
  auto req = DecodeFetchRequest(request);
  if (!req.ok()) return req.status();
  c_fetches_->Inc();
  size_t budget = options_.max_fetch_bytes;
  if (req->max_bytes > 0) {
    budget = std::min<size_t>(budget, static_cast<size_t>(req->max_bytes));
  }
  FetchResponse resp;
  {
    std::shared_lock<std::shared_mutex> lock(index_mu_);
    resp.head_seq = last_applied_seq_;
    resp.log_first_seq = wal_.first_seq();
    resp.records = wal_.Read(req->from_seq, budget);
  }
  return Encode(resp);
}

ShardServerStats ShardServer::stats() const {
  ShardServerStats snapshot;
  snapshot.served = c_served_->Value();
  snapshot.rejected = c_rejected_->Value();
  snapshot.cancelled = c_cancelled_->Value();
  snapshot.searches = c_searches_->Value();
  snapshot.ingest_batches = c_ingest_batches_->Value();
  snapshot.ingest_replays = c_ingest_replays_->Value();
  snapshot.fetches = c_fetches_->Value();
  snapshot.health_checks = c_health_checks_->Value();
  snapshot.decode_errors = c_decode_errors_->Value();
  std::lock_guard<std::mutex> lock(mu_);
  snapshot.queue_depth = queue_.size();
  return snapshot;
}

std::string ShardServer::WalImageForTesting() const {
  std::shared_lock<std::shared_mutex> lock(index_mu_);
  return wal_.Serialize();
}

void ShardServer::PauseForTesting() {
  std::lock_guard<std::mutex> lock(mu_);
  paused_ = true;
}

void ShardServer::ResumeForTesting() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    paused_ = false;
  }
  cv_.notify_all();
}

}  // namespace remote
}  // namespace deepsurf
