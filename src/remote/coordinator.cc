#include "remote/coordinator.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "index/analyzer.h"
#include "index/merge.h"
#include "util/hash.h"
#include "util/logging.h"

namespace deepsurf {
namespace remote {

namespace {
using Clock = std::chrono::steady_clock;

double MsSince(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}
}  // namespace

/// Completion state of one logical shard call, co-owned by the waiting
/// thread and every in-flight attempt's callback. Callbacks touch only
/// this (never the coordinator), so an abandoned attempt draining from a
/// server queue after the waiter gave up — or after the coordinator is
/// gone — still lands somewhere valid.
struct Coordinator::CallState {
  struct Attempt {
    size_t replica = 0;
    Clock::time_point issued;
    bool hedge = false;  ///< fired as a backup, not a primary/failover
    bool done = false;
    double latency_ms = 0.0;
    Result<std::string> result{Status::Unavailable("pending")};
  };

  std::mutex mu;
  std::condition_variable cv;
  std::vector<Attempt> attempts;
  int winner = -1;
  size_t failures = 0;
  ShardServer::CancelToken cancelled =
      std::make_shared<std::atomic<bool>>(false);
};

/// Exclusive hold on mu_ with writer preference: announces the writer
/// at the gate (pausing new queries), takes the lock, and on release
/// lets gated queries back in.
class Coordinator::WriterLock {
 public:
  explicit WriterLock(Coordinator* c) : c_(c) {
    {
      std::lock_guard<std::mutex> gate(c_->write_gate_mu_);
      ++c_->writers_pending_;
    }
    c_->mu_.lock();
  }
  ~WriterLock() {
    c_->mu_.unlock();
    {
      std::lock_guard<std::mutex> gate(c_->write_gate_mu_);
      --c_->writers_pending_;
    }
    c_->write_gate_cv_.notify_all();
  }
  WriterLock(const WriterLock&) = delete;
  WriterLock& operator=(const WriterLock&) = delete;

 private:
  Coordinator* c_;
};

Coordinator::Coordinator(Transport* transport, CoordinatorOptions options)
    : transport_(transport),
      options_(options),
      num_shards_(transport->num_shards()),
      num_replicas_(transport->num_replicas()),
      latency_ms_(std::max<size_t>(1, options.latency_window)) {
  local_to_global_.resize(num_shards_);
  shard_doc_count_.assign(num_shards_, 0);
  shard_seq_.assign(num_shards_, 0);
  shard_head_.assign(num_shards_, 0);
  wal_.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) wal_.emplace_back(options_.wal);
  health_.assign(num_shards_ * num_replicas_, ReplicaHealth{});
  replica_search_stats_.assign(num_shards_ * num_replicas_,
                               index::SearchStats{});

  tracer_ = options_.tracer != nullptr ? options_.tracer
                                       : obs::DefaultTracer();
  c_searches_ = metrics_.counter("coord.searches");
  c_ingest_batches_ = metrics_.counter("coord.ingest_batches");
  c_rpcs_ = metrics_.counter("coord.rpcs");
  c_hedges_ = metrics_.counter("coord.hedges");
  c_hedge_wins_ = metrics_.counter("coord.hedge_wins");
  c_failovers_ = metrics_.counter("coord.failovers");
  c_timeouts_ = metrics_.counter("coord.timeouts");
  c_failed_shard_calls_ = metrics_.counter("coord.failed_shard_calls");
  c_partial_results_ = metrics_.counter("coord.partial_results");
  c_ingest_stragglers_ = metrics_.counter("coord.ingest_stragglers");
  c_replicas_rejoined_ = metrics_.counter("coord.replicas_rejoined");
  c_batches_replayed_ = metrics_.counter("coord.batches_replayed");
  c_catchup_bytes_ = metrics_.counter("coord.catchup_bytes");
  g_replicas_dead_ = metrics_.gauge("coord.replicas_dead");
  h_rpc_ms_ = metrics_.histogram("coord.rpc_ms");

  // Enough workers that one query's fan-out plus replicated ingest can
  // run wide; the calling thread always executes one job itself, so an
  // undersized pool costs throughput, never progress.
  size_t workers = options_.fanout_threads;
  if (workers == 0) {
    workers = std::min<size_t>(
        32, std::max<size_t>(4 * num_shards_, num_shards_ * num_replicas_));
  }
  pool_workers_.reserve(workers);
  for (size_t i = 0; i < workers; ++i) {
    pool_workers_.emplace_back(&Coordinator::PoolWorkerLoop, this);
  }
  catchup_worker_ = std::thread(&Coordinator::CatchUpLoop, this);
}

Coordinator::~Coordinator() {
  // The catch-up worker goes first: it issues transport calls of its
  // own (never through the pool), and nothing may be in flight when the
  // borrowed transport's owner tears it down after us.
  {
    std::lock_guard<std::mutex> lock(catchup_mu_);
    catchup_stop_ = true;
  }
  catchup_cv_.notify_all();
  catchup_worker_.join();
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    pool_stop_ = true;
  }
  pool_cv_.notify_all();
  for (auto& t : pool_workers_) t.join();
}

void Coordinator::PoolWorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(pool_mu_);
      pool_cv_.wait(lock, [&] { return pool_stop_ || !pool_jobs_.empty(); });
      if (pool_stop_) return;
      job = std::move(pool_jobs_.front());
      pool_jobs_.pop_front();
    }
    job();
  }
}

void Coordinator::RunJobs(std::vector<std::function<void()>> jobs) const {
  if (jobs.empty()) return;
  if (jobs.size() == 1) {
    jobs[0]();
    return;
  }
  struct Latch {
    std::mutex mu;
    std::condition_variable cv;
    size_t remaining = 0;
  };
  auto latch = std::make_shared<Latch>();
  latch->remaining = jobs.size() - 1;
  {
    std::lock_guard<std::mutex> lock(pool_mu_);
    for (size_t i = 1; i < jobs.size(); ++i) {
      pool_jobs_.push_back([job = std::move(jobs[i]), latch] {
        job();
        std::lock_guard<std::mutex> lk(latch->mu);
        if (--latch->remaining == 0) latch->cv.notify_one();
      });
    }
  }
  pool_cv_.notify_all();
  jobs[0]();  // the caller's own share
  std::unique_lock<std::mutex> lock(latch->mu);
  latch->cv.wait(lock, [&] { return latch->remaining == 0; });
}

void Coordinator::RunPerShard(const std::function<void(size_t)>& fn) const {
  std::vector<std::function<void()>> jobs;
  jobs.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    jobs.push_back([&fn, s] { fn(s); });
  }
  RunJobs(std::move(jobs));
}

size_t Coordinator::ShardForUrl(const std::string& url) const {
  return Fnv1a64(url) % num_shards_;
}

double Coordinator::HedgeDelayMs() const {
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  if (latency_ms_.size() < options_.hedge_warmup) return options_.hedge_min_ms;
  // Quantile() is O(window) — too much to pay under a contended lock on
  // every shard call. Recompute every kRefreshEvery samples; hedge
  // delays only need to track the latency distribution, not each point.
  constexpr uint64_t kRefreshEvery = 64;
  if (latency_ms_.total() >= hedge_delay_refresh_at_) {
    hedge_delay_cache_ms_ = std::min(
        options_.hedge_max_ms,
        std::max(options_.hedge_min_ms,
                 latency_ms_.Quantile(options_.hedge_quantile)));
    hedge_delay_refresh_at_ = latency_ms_.total() + kRefreshEvery;
  }
  return hedge_delay_cache_ms_;
}

std::vector<size_t> Coordinator::ReplicaPlan(size_t shard,
                                             size_t attempts) const {
  uint64_t start = rotation_.fetch_add(1, std::memory_order_relaxed);
  std::vector<size_t> order;
  std::vector<size_t> last_resort;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    // Only replicas that acked every ingest batch may serve: a stale
    // replica would answer from a smaller corpus and break byte
    // identity — it re-enters this plan the moment catch-up brings its
    // acked seq back to the head. Poisoned replicas (diverged index)
    // never re-enter. Dead-flagged (but current) replicas go last —
    // when nothing else is left, a long shot beats a guaranteed
    // failure.
    uint64_t want_seq = shard_head_[shard];
    for (size_t i = 0; i < num_replicas_; ++i) {
      size_t r = (start + i) % num_replicas_;
      const ReplicaHealth& h = health_[shard * num_replicas_ + r];
      if (h.poisoned || h.last_acked_seq != want_seq) continue;
      (h.dead ? last_resort : order).push_back(r);
    }
  }
  order.insert(order.end(), last_resort.begin(), last_resort.end());
  if (order.empty()) return {};
  std::vector<size_t> plan;
  plan.reserve(attempts);
  while (plan.size() < attempts) plan.push_back(order[plan.size() % order.size()]);
  return plan;
}

Result<std::string> Coordinator::CallShard(
    size_t shard, const std::string& request, int pinned_replica,
    size_t max_attempts, bool hedging_allowed, obs::TraceContext* trace,
    uint64_t parent_span, uint64_t* winner_span) const {
  max_attempts = std::max<size_t>(1, max_attempts);
  std::vector<size_t> plan;
  if (pinned_replica >= 0) {
    plan.assign(max_attempts, static_cast<size_t>(pinned_replica));
  } else {
    plan = ReplicaPlan(shard, max_attempts);
    if (plan.empty()) {
      c_failed_shard_calls_->Inc();
      return Status::Unavailable("shard " + std::to_string(shard) +
                                 " has no current replica");
    }
  }

  auto state = std::make_shared<CallState>();
  state->attempts.reserve(plan.size());
  const auto timeout = std::chrono::microseconds(
      static_cast<int64_t>(options_.call_timeout_ms * 1000.0));

  uint64_t rpcs = 0, hedges = 0, failovers = 0, timeouts = 0;
  auto issue = [&](bool as_hedge) {
    size_t idx;
    {
      std::lock_guard<std::mutex> lock(state->mu);
      idx = state->attempts.size();
      CallState::Attempt a;
      a.replica = plan[idx];
      a.issued = Clock::now();
      a.hedge = as_hedge;
      state->attempts.push_back(std::move(a));
    }
    ++rpcs;
    transport_->Call(
        shard, plan[idx], request,
        [state, idx](Result<std::string> r) {
          std::lock_guard<std::mutex> lock(state->mu);
          CallState::Attempt& a = state->attempts[idx];
          if (a.done) return;  // at-most-once, but stay defensive
          a.done = true;
          a.latency_ms = MsSince(a.issued);
          a.result = std::move(r);
          if (a.result.ok()) {
            if (state->winner < 0) {
              state->winner = static_cast<int>(idx);
              // Cancel the losers: requests still queued at other
              // replicas die before execution.
              state->cancelled->store(true, std::memory_order_relaxed);
            }
          } else {
            ++state->failures;
          }
          state->cv.notify_all();
        },
        state->cancelled);
  };

  issue(/*as_hedge=*/false);
  Clock::time_point attempt_deadline = Clock::now() + timeout;
  // Arm the hedge only when the backup would go to a DIFFERENT replica
  // (the plan cycles the usable set, so plan[1] != plan[0] iff there is
  // more than one): hedging a lone struggling replica with a duplicate
  // of its own request only deepens its queue.
  bool hedge_armed = hedging_allowed && options_.hedging &&
                     pinned_replica < 0 && plan.size() > 1 &&
                     plan[1] != plan[0];
  const auto hedge_delay = std::chrono::microseconds(
      hedge_armed ? static_cast<int64_t>(HedgeDelayMs() * 1000.0) : 0);
  // Re-anchored whenever a new attempt is issued (failover / timeout
  // rotation): each fresh attempt earns the full hedge delay before a
  // backup fires at yet another replica.
  Clock::time_point hedge_at = hedge_armed
                                   ? Clock::now() + hedge_delay
                                   : Clock::time_point::max();

  Result<std::string> outcome = Status::Unavailable("no attempt completed");
  for (;;) {
    std::unique_lock<std::mutex> lock(state->mu);
    Clock::time_point wake = attempt_deadline;
    if (hedge_armed && hedge_at < wake) wake = hedge_at;
    state->cv.wait_until(lock, wake, [&] {
      return state->winner >= 0 ||
             state->failures == state->attempts.size();
    });
    const size_t issued = state->attempts.size();
    if (state->winner >= 0) {
      outcome = state->attempts[static_cast<size_t>(state->winner)].result;
      break;
    }
    if (state->failures == issued) {
      if (issued < plan.size()) {
        lock.unlock();
        ++failovers;
        issue(/*as_hedge=*/false);
        attempt_deadline = Clock::now() + timeout;
        if (hedge_armed) hedge_at = Clock::now() + hedge_delay;
        continue;
      }
      outcome = state->attempts.back().result;  // the final failure
      break;
    }
    const Clock::time_point now = Clock::now();
    if (hedge_armed && now >= hedge_at) {
      hedge_armed = false;
      if (issued < plan.size()) {
        lock.unlock();
        ++hedges;
        issue(/*as_hedge=*/true);
        attempt_deadline = Clock::now() + timeout;
      }
      continue;
    }
    if (now >= attempt_deadline) {
      ++timeouts;
      if (issued < plan.size()) {
        lock.unlock();
        issue(/*as_hedge=*/false);
        attempt_deadline = Clock::now() + timeout;
        if (hedge_armed) hedge_at = Clock::now() + hedge_delay;
        continue;
      }
      outcome = Status::DeadlineExceeded(
          "shard " + std::to_string(shard) +
          " unresponsive across every replica attempt");
      break;
    }
    // Spurious wakeup before any deadline: wait again.
  }

  // Won or lost, nothing outstanding is wanted anymore: let presumed-
  // lost requests still queued at busy servers die before execution
  // instead of amplifying the pressure that timed them out.
  state->cancelled->store(true, std::memory_order_relaxed);

  // Telemetry, from a snapshot of what actually happened. Callbacks
  // never touch the coordinator, so this is the only place health and
  // latency get updated — by the thread that owns the call.
  struct Seen {
    size_t replica;
    bool done, ok, hedge, pressure, winner;
    double latency_ms;
    double start_ms, duration_ms;  ///< process-epoch span timing
  };
  std::vector<Seen> seen;
  {
    std::lock_guard<std::mutex> lock(state->mu);
    const double now_ms = obs::ProcessEpochMs();
    seen.reserve(state->attempts.size());
    for (size_t i = 0; i < state->attempts.size(); ++i) {
      const auto& a = state->attempts[i];
      // FailedPrecondition rides along: it is the seq discipline
      // talking (an out-of-sequence batch at a stale replica), a
      // protocol-state signal from a live server — not evidence of
      // unreachability that should push a replica toward dead.
      bool pressure =
          a.done && !a.result.ok() &&
          (a.result.status().IsResourceExhausted() ||
           a.result.status().IsAborted() ||
           a.result.status().IsFailedPrecondition());
      const double since_issued = MsSince(a.issued);
      seen.push_back(Seen{a.replica, a.done, a.done && a.result.ok(),
                          a.hedge, pressure,
                          state->winner == static_cast<int>(i),
                          a.latency_ms, now_ms - since_issued,
                          a.done ? a.latency_ms : since_issued});
    }
  }
  c_rpcs_->Inc(rpcs);
  c_hedges_->Inc(hedges);
  c_failovers_->Inc(failovers);
  c_timeouts_->Inc(timeouts);
  const bool won = outcome.ok();
  if (!won) c_failed_shard_calls_->Inc();
  if (trace != nullptr) {
    // One span per attempt, whatever became of it — hedges that lost,
    // cancellations, and timeouts are exactly what a tail-latency trace
    // exists to show.
    for (const auto& s : seen) {
      uint64_t id = trace->AddCompletedSpan("coord.rpc", parent_span,
                                            s.start_ms, s.duration_ms);
      trace->Tag(id, "shard", static_cast<uint64_t>(shard));
      trace->Tag(id, "replica", static_cast<uint64_t>(s.replica));
      if (s.hedge) trace->Tag(id, "hedge", "1");
      trace->Tag(id, "outcome", s.winner ? "won"
                                : s.ok   ? "ok"
                                : s.done ? "failed"
                                         : "cancelled");
      if (s.winner && winner_span != nullptr) *winner_span = id;
    }
  }
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    for (const auto& s : seen) {
      ReplicaHealth& h = health_[shard * num_replicas_ + s.replica];
      if (s.ok) {
        h.consecutive_failures = 0;
        // Pinned calls (replicated ingest, health probes) bypass
        // ReplicaPlan, so success there proves liveness but not
        // currency — revival would let a monitoring sweep resurrect a
        // replica the plan rightly skips. Ingest acks revive through
        // IngestLocked's own bookkeeping instead.
        if (h.dead && pinned_replica < 0) {
          h.dead = false;  // liveness proven; currency was a plan invariant
          g_replicas_dead_->Add(-1);
        }
        if (s.winner) {
          // The tracker drives search hedging; ingest (exclusive index
          // lock, whole batches) and health latencies would skew it.
          if (pinned_replica < 0) {
            latency_ms_.Add(s.latency_ms);
            h_rpc_ms_->Observe(s.latency_ms);
          }
          if (s.hedge) c_hedge_wins_->Inc();
        }
        continue;
      }
      // An attempt counts against its replica when it hard-failed, or
      // never answered on a call that ultimately lost (presumed-lost
      // request). Queue pressure, cancelled losers, and still-in-flight
      // losers of a won call don't.
      const bool hard_failure = (s.done && !s.pressure) || (!s.done && !won);
      if (!hard_failure) continue;
      ++h.consecutive_failures;
      if (!h.dead && h.consecutive_failures >= options_.dead_after) {
        h.dead = true;
        g_replicas_dead_->Add(1);
      }
    }
  }
  return outcome;
}

std::vector<index::SearchHit> Coordinator::Search(const std::string& query,
                                                  size_t k) const {
  return SearchTerms(index::ContentTokens(query), k);
}

std::vector<index::SearchHit> Coordinator::SearchTerms(
    const std::vector<std::string>& terms, size_t k) const {
  // Writer preference: a pending ingest pauses new queries at the gate
  // (queries hold the reader lock for whole RPC rounds, so without this
  // a steady query stream starves ingest indefinitely).
  {
    std::unique_lock<std::mutex> gate(write_gate_mu_);
    write_gate_cv_.wait(gate, [&] { return writers_pending_ == 0; });
  }
  // One reader hold across the round: every shard answers from the
  // corpus snapshot whose statistics the search frame carries, which is
  // what makes one round exact even while ingest is knocking.
  std::shared_lock<std::shared_mutex> lock(mu_);
  if (terms.empty() || docs_.empty() || k == 0) return {};
  c_searches_->Inc();

  // The query's trace: the engine installs one as the calling thread's
  // CurrentTrace; a query entering here directly gets its own when the
  // tracer samples. The pointer is carried into fan-out lambdas
  // explicitly — thread-locals do not follow jobs onto pool threads —
  // and TraceContext is thread-safe under concurrent appends.
  obs::TraceContext* tc = obs::CurrentTrace();
  std::shared_ptr<obs::TraceContext> own_trace;
  if (tc == nullptr && tracer_->enabled()) {
    own_trace = tracer_->StartTrace("coord.search");
    tc = own_trace.get();
    if (tc != nullptr) {
      std::string joined;
      for (const auto& t : terms) {
        if (!joined.empty()) joined.push_back(' ');
        joined += t;
      }
      tc->SetQuery(std::move(joined), static_cast<uint64_t>(k));
    }
  }

  uint64_t search_span = 0;
  if (tc != nullptr) {
    search_span = tc->StartSpan("coord.search_round",
                                obs::TraceContext::kRootSpan);
  }
  SearchRequest sreq;
  sreq.terms = terms;
  sreq.k = k;
  // Full-corpus statistics, counted at ingest: exact integers, so every
  // shard scores bit-for-bit as one index over the whole corpus would —
  // and an unreachable shard's documents stay in them (the
  // partial-result rule in coordinator.h).
  sreq.stats.num_docs = static_cast<double>(docs_.size());
  sreq.stats.total_length = static_cast<double>(total_length_);
  sreq.stats.term_df.reserve(terms.size());
  for (const auto& t : terms) {
    auto it = term_df_.find(t);
    sreq.stats.term_df.push_back(it == term_df_.end() ? 0 : it->second.df);
  }
  if (tc != nullptr && tc->sampled()) {
    // Wire propagation only for sampled traces: a server never spends
    // timing work on a trace that might be discarded, and committed
    // trees stay complete. Unsampled frames are byte-identical to
    // pre-trace ones.
    sreq.trace_id = tc->trace_id();
    sreq.parent_span = search_span;
  }
  const std::string search_frame = Encode(sreq);
  std::vector<std::vector<index::SearchHit>> per_shard(num_shards_);
  std::vector<char> search_ok(num_shards_, 0);
  RunPerShard([&](size_t s) {
    uint64_t winner_span = 0;
    auto frame = CallShard(s, search_frame, /*pinned_replica=*/-1,
                           options_.max_attempts, /*hedging_allowed=*/true,
                           tc, search_span, &winner_span);
    if (!frame.ok()) return;
    auto resp = DecodeSearchResponse(*frame);
    if (!resp.ok()) return;
    if (tc != nullptr && resp->has_timing && winner_span != 0) {
      // The server measured its own queue wait and DAAT scoring and
      // carried them back in the response's timing tail; rebuild them
      // as children of the winning rpc attempt, back-dated so score
      // ends where the response landed.
      const double now_ms = obs::ProcessEpochMs();
      const double queue_ms = static_cast<double>(resp->queue_us) / 1000.0;
      const double score_ms = static_cast<double>(resp->score_us) / 1000.0;
      tc->AddCompletedSpan("shard.queue_wait", winner_span,
                           now_ms - queue_ms - score_ms, queue_ms);
      uint64_t score_id = tc->AddCompletedSpan(
          "shard.score", winner_span, now_ms - score_ms, score_ms);
      tc->Tag(score_id, "blocks_decoded", resp->blocks_decoded);
      tc->Tag(score_id, "blocks_skipped", resp->blocks_skipped);
    }
    per_shard[s] = std::move(resp->hits);
    search_ok[s] = 1;
  });
  if (tc != nullptr) tc->EndSpan(search_span);

  obs::ScopedSpan merge_span(tc, "coord.merge", obs::TraceContext::kRootSpan);
  std::vector<index::SearchHit> merged;
  bool partial = false;
  for (size_t s = 0; s < num_shards_; ++s) {
    if (search_ok[s] == 0) {
      partial = true;
      continue;
    }
    // Unlike ShardedIndex's trusted in-process merge (AppendGlobalHits),
    // these hits crossed a boundary: bound-check the local ids. An id
    // past the committed map means the replica holds documents the
    // coordinator never committed (a diverged or misbehaving server) —
    // skip the hit rather than read out of range; the ack validation in
    // the ingest path poisons such a replica out of rotation.
    const auto& to_global = local_to_global_[s];
    for (const auto& hit : per_shard[s]) {
      if (hit.doc >= to_global.size()) continue;
      merged.push_back(index::SearchHit{to_global[hit.doc], hit.score});
    }
  }
  if (partial) c_partial_results_->Inc();
  return index::MergeTopK(std::move(merged), k);
}

Result<index::DocId> Coordinator::AddDocument(const std::string& url,
                                              const std::string& title,
                                              const std::string& body,
                                              bool is_deep_web,
                                              const std::string& source_host) {
  WriterLock lock(this);
  std::vector<index::DocId> ids;
  auto added = IngestLocked(
      {index::Document{url, title, body, is_deep_web, source_host}}, nullptr,
      &ids);
  if (!added.ok()) return added.status();
  return ids[0];
}

Result<size_t> Coordinator::InsertBatch(
    const std::vector<index::Document>& docs,
    std::vector<bool>* newly_added) {
  WriterLock lock(this);
  std::vector<index::DocId> ids;
  return IngestLocked(docs, newly_added, &ids);
}

Result<size_t> Coordinator::IngestLocked(
    const std::vector<index::Document>& docs,
    std::vector<bool>* newly_added, std::vector<index::DocId>* ids) {
  if (newly_added != nullptr) newly_added->assign(docs.size(), false);
  ids->assign(docs.size(), 0);

  // Mirror of ShardedIndex::AddDocumentLocked, batch-wide: global ids in
  // insertion order, global duplicate suppression by content hash, URL-
  // hash routing. Everything is decided here; shards just apply.
  std::vector<IngestRequest> batches(num_shards_);
  std::vector<std::vector<size_t>> batch_origin(num_shards_);
  std::vector<char> is_new(docs.size(), 0);
  std::vector<uint64_t> hashes(docs.size(), 0);
  size_t next_gid = docs_.size();
  size_t added_count = 0;
  for (size_t i = 0; i < docs.size(); ++i) {
    const auto& d = docs[i];
    hashes[i] = Fnv1a64(d.body);
    if (options_.suppress_duplicates) {
      auto it = by_hash_.find(hashes[i]);
      if (it != by_hash_.end()) {
        (*ids)[i] = it->second;
        continue;
      }
    }
    size_t s = ShardForUrl(d.url);
    auto gid = static_cast<index::DocId>(next_gid++);
    by_hash_.emplace(hashes[i], gid);  // first writer wins, as ShardedIndex
    (*ids)[i] = gid;
    is_new[i] = 1;
    if (newly_added != nullptr) (*newly_added)[i] = true;
    ++added_count;
    batches[s].docs.push_back(d);
    batch_origin[s].push_back(i);
  }
  if (added_count == 0) return static_cast<size_t>(0);

  // Stage in the write-ahead log and commit the coordinator's state
  // BEFORE dispatching anything. This is sound because a correct ack is
  // fully deterministic: local ids are dense in batch order from the
  // shard's doc count, every doc is newly added (dedup already ran
  // here), and token lengths come from the same tokenizer the servers
  // run. No ack can change the outcome — only confirm it, or expose a
  // diverged replica. So the batch is committed the moment it is
  // staged, the caller's ingest is exactly-once (no rollback path
  // exists), and replicas that miss the dispatch are stragglers for the
  // catch-up worker, which replays staged batches until they ack or
  // die.
  std::vector<uint64_t> base(num_shards_, 0);
  std::vector<std::shared_ptr<std::string>> frames(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    if (batches[s].docs.empty()) continue;
    batches[s].seq = shard_seq_[s] + 1;
    base[s] = shard_doc_count_[s];
    frames[s] = std::make_shared<std::string>(Encode(batches[s]));
    DS_CHECK_OK(wal_[s].Append(batches[s].seq, *frames[s]));
    shard_seq_[s] = batches[s].seq;
    shard_doc_count_[s] += batches[s].docs.size();
    for (size_t i : batch_origin[s]) {
      local_to_global_[s].push_back((*ids)[i]);
    }
  }
  // The mirror and the corpus statistics in global-id (original
  // insertion) order, from the shared tokenizer: lengths are exactly
  // what every replica will report back, and each document adds one to
  // the df of every distinct content token of its body and title — the
  // postings a replica's index gives it.
  std::vector<uint32_t> length_of(docs.size(), 0);
  for (size_t i = 0; i < docs.size(); ++i) {
    if (is_new[i] == 0) continue;
    const uint32_t stamp = (*ids)[i] + 1;
    auto count_df = [&](const std::vector<std::string>& tokens) {
      for (const auto& t : tokens) {
        TermDf& entry = term_df_[t];
        if (entry.stamp == stamp) continue;
        entry.stamp = stamp;
        ++entry.df;
      }
    };
    const std::vector<std::string> body_tokens =
        index::ContentTokens(docs[i].body);
    count_df(body_tokens);
    count_df(index::ContentTokens(docs[i].title));
    length_of[i] = static_cast<uint32_t>(body_tokens.size());
    total_length_ += length_of[i];
    index::DocInfo info;
    info.url = docs[i].url;
    info.title = docs[i].title;
    info.length = length_of[i];
    info.content_hash = hashes[i];
    info.is_deep_web = docs[i].is_deep_web;
    info.source_host = docs[i].source_host;
    docs_.push_back(std::move(info));
  }

  // Replicate each shard's batch to every replica in parallel. Sequence
  // numbers make retries idempotent server-side.
  struct Ack {
    bool ok = false;
    IngestResponse response;
  };
  std::vector<std::vector<Ack>> acks(num_shards_,
                                     std::vector<Ack>(num_replicas_));
  {
    std::vector<std::function<void()>> jobs;
    for (size_t s = 0; s < num_shards_; ++s) {
      if (batches[s].docs.empty()) continue;
      auto frame = frames[s];
      for (size_t r = 0; r < num_replicas_; ++r) {
        jobs.push_back([this, s, r, frame, &acks] {
          auto resp = CallShard(s, *frame, static_cast<int>(r),
                                options_.ingest_max_attempts,
                                /*hedging_allowed=*/false);
          if (!resp.ok()) return;
          auto decoded = DecodeIngestResponse(*resp);
          if (!decoded.ok()) return;
          acks[s][r].ok = true;
          acks[s][r].response = std::move(*decoded);
        });
      }
    }
    RunJobs(std::move(jobs));
  }

  // Bookkeeping: grade every ack against the deterministic expectation.
  // A matching ack proves liveness and currency; a missing one makes a
  // straggler for catch-up; a contradicting one exposes a replica whose
  // index diverged from the committed history (or servers running
  // different IndexOptions than the coordinator) — poisoned, out of
  // serving and catch-up for good.
  std::vector<std::pair<size_t, size_t>> stragglers;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    for (size_t s = 0; s < num_shards_; ++s) {
      if (batches[s].docs.empty()) continue;
      c_ingest_batches_->Inc();
      shard_head_[s] = batches[s].seq;
      for (size_t r = 0; r < num_replicas_; ++r) {
        ReplicaHealth& h = health_[s * num_replicas_ + r];
        if (h.poisoned) continue;
        if (!acks[s][r].ok) {
          c_ingest_stragglers_->Inc();
          stragglers.emplace_back(s, r);
          continue;
        }
        const IngestResponse& resp = acks[s][r].response;
        bool valid = resp.seq == batches[s].seq &&
                     resp.local_ids.size() == batches[s].docs.size();
        for (size_t pos = 0; valid && pos < resp.local_ids.size(); ++pos) {
          valid = resp.local_ids[pos] == base[s] + pos &&
                  resp.newly_added[pos] == 1 &&
                  resp.lengths[pos] ==
                      length_of[batch_origin[s][pos]];
        }
        if (!valid) {
          h.poisoned = true;
          DS_LOG(Error) << "replica " << r << " of shard " << s
                        << " acked ingest batch " << batches[s].seq
                        << " with contents contradicting the committed "
                           "placement; poisoning it (do the servers run "
                           "the same IndexOptions as the coordinator?)";
          continue;
        }
        h.last_acked_seq = batches[s].seq;
        h.consecutive_failures = 0;
        if (h.dead) {
          h.dead = false;
          g_replicas_dead_->Add(-1);
        }
      }
    }
  }
  for (const auto& [s, r] : stragglers) RequestCatchUp(s, r);
  return added_count;
}

void Coordinator::RequestCatchUp(size_t shard, size_t replica) {
  if (shard >= num_shards_ || replica >= num_replicas_) return;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    ReplicaHealth& h = health_[shard * num_replicas_ + replica];
    if (h.poisoned) return;  // no replay can fix a diverged index
    h.catching_up = true;
  }
  {
    std::lock_guard<std::mutex> lock(catchup_mu_);
    catchup_queue_.emplace_back(shard, replica);
  }
  catchup_cv_.notify_all();
}

void Coordinator::RequestCatchUpAll() {
  std::vector<std::pair<size_t, size_t>> stale;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    for (size_t s = 0; s < num_shards_; ++s) {
      for (size_t r = 0; r < num_replicas_; ++r) {
        const ReplicaHealth& h = health_[s * num_replicas_ + r];
        if (!h.poisoned && h.last_acked_seq != shard_head_[s]) {
          stale.emplace_back(s, r);
        }
      }
    }
  }
  for (const auto& [s, r] : stale) RequestCatchUp(s, r);
}

bool Coordinator::WaitForCatchUp(double timeout_ms) const {
  std::unique_lock<std::mutex> lock(catchup_mu_);
  auto drained = [&] {
    return catchup_queue_.empty() && catchup_inflight_ == 0;
  };
  if (timeout_ms <= 0.0) {
    catchup_cv_.wait(lock, drained);
    return true;
  }
  return catchup_cv_.wait_for(
      lock, std::chrono::duration<double, std::milli>(timeout_ms), drained);
}

void Coordinator::CatchUpLoop() {
  std::unique_lock<std::mutex> lock(catchup_mu_);
  for (;;) {
    catchup_cv_.wait(lock,
                     [&] { return catchup_stop_ || !catchup_queue_.empty(); });
    if (catchup_stop_) return;
    auto [shard, replica] = catchup_queue_.front();
    catchup_queue_.pop_front();
    ++catchup_inflight_;
    lock.unlock();
    CatchUpOne(shard, replica);
    lock.lock();
    --catchup_inflight_;
    catchup_cv_.notify_all();  // wakes WaitForCatchUp
  }
}

Result<uint64_t> Coordinator::ProbeAppliedSeq(size_t shard,
                                              size_t replica) const {
  auto resp =
      CallShard(shard, Encode(HealthRequest{}), static_cast<int>(replica),
                options_.catchup_attempts, /*hedging_allowed=*/false);
  if (!resp.ok()) return resp.status();
  auto health = DecodeHealthResponse(*resp);
  if (!health.ok()) return health.status();
  return health->last_applied_seq;
}

std::vector<IngestLogRecord> Coordinator::FetchMissing(
    size_t shard, size_t exclude, uint64_t from_seq) const {
  // Prefer a currency-holding peer: it holds the full committed history
  // by definition and serves the read without the coordinator's corpus
  // lock. (A stale peer is useless — its window ends where its own
  // catch-up does.)
  int peer = -1;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    uint64_t head = shard_head_[shard];
    for (size_t r = 0; r < num_replicas_; ++r) {
      if (r == exclude) continue;
      const ReplicaHealth& h = health_[shard * num_replicas_ + r];
      if (h.poisoned || h.dead || h.last_acked_seq != head) continue;
      peer = static_cast<int>(r);
      break;
    }
  }
  if (peer >= 0) {
    FetchRequest freq;
    freq.from_seq = from_seq;
    freq.max_bytes = options_.catchup_fetch_bytes;
    auto resp = CallShard(shard, Encode(freq), peer,
                          options_.catchup_attempts,
                          /*hedging_allowed=*/false);
    if (resp.ok()) {
      auto decoded = DecodeFetchResponse(*resp);
      if (decoded.ok() && !decoded->records.empty() &&
          decoded->records.front().seq == from_seq) {
        // The wire decode bounds-checked the bytes and enforced seq
        // contiguity; this checks each record really is the ingest
        // frame its seq claims before it gets replayed anywhere.
        bool valid = true;
        for (const auto& rec : decoded->records) {
          auto req = DecodeIngestRequest(rec.payload);
          if (!req.ok() || req->seq != rec.seq) {
            valid = false;
            break;
          }
        }
        if (valid) return std::move(decoded->records);
      }
    }
  }
  // Fall back to the coordinator's own staged log.
  std::shared_lock<std::shared_mutex> lock(mu_);
  return wal_[shard].Read(from_seq, options_.catchup_fetch_bytes);
}

bool Coordinator::CatchUpOne(size_t shard, size_t replica) {
  const size_t idx = shard * num_replicas_ + replica;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    ReplicaHealth& h = health_[idx];
    if (h.poisoned) {
      h.catching_up = false;
      return false;
    }
    if (h.last_acked_seq == shard_head_[shard]) {
      h.catching_up = false;  // already current; nothing to do
      return true;
    }
  }

  // Servers remember only their LAST ingest response, so replay must
  // start exactly at the replica's true applied seq (one behind would
  // be refused as out-of-sequence) — probe for it. An ack-lost replica
  // often turns out fully applied here, and "catch-up" is just the
  // bookkeeping below.
  auto probed = ProbeAppliedSeq(shard, replica);
  if (!probed.ok()) {
    // Unreachable: leave it stale. A future revival, straggle, or sweep
    // re-enqueues it.
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    health_[idx].catching_up = false;
    return false;
  }
  uint64_t applied = *probed;
  uint64_t replayed_batches = 0;
  uint64_t replayed_bytes = 0;
  bool healed = true;
  while (healed) {
    uint64_t head;
    {
      std::lock_guard<std::mutex> lock(telemetry_mu_);
      head = shard_head_[shard];
    }
    if (applied >= head) break;
    auto records = FetchMissing(shard, replica, applied + 1);
    if (records.empty() || records.front().seq != applied + 1) {
      DS_LOG(Warning) << "catch-up for replica " << replica << " of shard "
                      << shard << " stalled at seq " << applied
                      << ": no source retains batch " << (applied + 1);
      healed = false;
      break;
    }
    for (const auto& rec : records) {
      auto ack = CallShard(shard, rec.payload, static_cast<int>(replica),
                           options_.catchup_attempts,
                           /*hedging_allowed=*/false);
      if (ack.ok()) {
        auto decoded = DecodeIngestResponse(*ack);
        if (!decoded.ok() || decoded->seq != rec.seq) {
          healed = false;
          break;
        }
        applied = rec.seq;
        ++replayed_batches;
        replayed_bytes += rec.payload.size();
        continue;
      }
      if (ack.status().IsFailedPrecondition()) {
        // The replica refused a verbatim committed frame. If its
        // applied seq advanced past where we thought it was, a
        // concurrently dispatched batch beat the replay there — adopt
        // the new position and refetch. Otherwise it holds conflicting
        // content under this seq: diverged beyond repair.
        auto reprobe = ProbeAppliedSeq(shard, replica);
        if (reprobe.ok() && *reprobe > applied) {
          applied = *reprobe;
          break;  // refetch from the new position
        }
        {
          std::lock_guard<std::mutex> lock(telemetry_mu_);
          ReplicaHealth& h = health_[idx];
          h.poisoned = true;
          h.catching_up = false;
        }
        c_batches_replayed_->Inc(replayed_batches);
        c_catchup_bytes_->Inc(replayed_bytes);
        DS_LOG(Error) << "replica " << replica << " of shard " << shard
                      << " refused verbatim replay of batch " << rec.seq
                      << "; its index diverged from the committed history "
                         "— poisoning it";
        return false;
      }
      healed = false;  // transient failure; a later request retries
      break;
    }
  }

  bool current = false;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    ReplicaHealth& h = health_[idx];
    const bool was_stale = h.last_acked_seq != shard_head_[shard];
    if (applied > h.last_acked_seq) h.last_acked_seq = applied;
    current = h.last_acked_seq == shard_head_[shard];
    if (current) {
      h.consecutive_failures = 0;
      if (h.dead) {
        h.dead = false;
        g_replicas_dead_->Add(-1);
      }
      if (was_stale) c_replicas_rejoined_->Inc();
    }
    h.catching_up = false;
  }
  c_batches_replayed_->Inc(replayed_batches);
  c_catchup_bytes_->Inc(replayed_bytes);
  return current;
}

index::DocInfo Coordinator::doc(index::DocId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DS_CHECK(id < docs_.size()) << "doc id out of range";
  return docs_[id];
}

const index::DocInfo& Coordinator::doc_ref(index::DocId id) const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  DS_CHECK(id < docs_.size()) << "doc id out of range";
  return docs_[id];
}

size_t Coordinator::num_docs() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return docs_.size();
}

uint64_t Coordinator::ingest_epoch() const {
  std::shared_lock<std::shared_mutex> lock(mu_);
  return docs_.size();
}

CoordinatorStats Coordinator::stats() const {
  CoordinatorStats snapshot;
  snapshot.searches = c_searches_->Value();
  snapshot.ingest_batches = c_ingest_batches_->Value();
  snapshot.rpcs = c_rpcs_->Value();
  snapshot.hedges = c_hedges_->Value();
  snapshot.hedge_wins = c_hedge_wins_->Value();
  snapshot.failovers = c_failovers_->Value();
  snapshot.timeouts = c_timeouts_->Value();
  snapshot.failed_shard_calls = c_failed_shard_calls_->Value();
  snapshot.partial_results = c_partial_results_->Value();
  snapshot.ingest_stragglers = c_ingest_stragglers_->Value();
  snapshot.replicas_rejoined = c_replicas_rejoined_->Value();
  snapshot.batches_replayed = c_batches_replayed_->Value();
  snapshot.catchup_bytes = c_catchup_bytes_->Value();
  const int64_t dead = g_replicas_dead_->Value();
  snapshot.replicas_dead = dead > 0 ? static_cast<uint64_t>(dead) : 0;
  std::lock_guard<std::mutex> lock(telemetry_mu_);
  snapshot.rpc_p50_ms = latency_ms_.Quantile(0.50);
  snapshot.rpc_p95_ms = latency_ms_.Quantile(0.95);
  snapshot.rpc_p99_ms = latency_ms_.Quantile(0.99);
  return snapshot;
}

std::vector<ReplicaProbe> Coordinator::ProbeHealth() const {
  const std::string frame = Encode(HealthRequest{});
  std::vector<ReplicaProbe> probes(num_shards_ * num_replicas_);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(probes.size());
  for (size_t s = 0; s < num_shards_; ++s) {
    for (size_t r = 0; r < num_replicas_; ++r) {
      jobs.push_back([this, s, r, &frame, &probes] {
        ReplicaProbe& probe = probes[s * num_replicas_ + r];
        probe.shard = s;
        probe.replica = r;
        {
          std::lock_guard<std::mutex> lock(telemetry_mu_);
          const ReplicaHealth& h = health_[s * num_replicas_ + r];
          probe.marked_dead = h.dead;
          probe.last_acked_seq = h.last_acked_seq;
          probe.shard_head_seq = shard_head_[s];
          probe.catching_up = h.catching_up;
        }
        auto resp = CallShard(s, frame, static_cast<int>(r), /*attempts=*/1,
                              /*hedging_allowed=*/false);
        if (!resp.ok()) return;
        auto health = DecodeHealthResponse(*resp);
        if (!health.ok()) return;
        probe.reachable = true;
        probe.health = *health;
      });
    }
  }
  RunJobs(std::move(jobs));
  return probes;
}

index::IndexMemoryUsage Coordinator::MemoryUsage() const {
  HealthRequest req;
  req.include_memory = true;
  const std::string frame = Encode(req);
  std::vector<index::IndexMemoryUsage> per_shard(num_shards_);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(num_shards_);
  for (size_t s = 0; s < num_shards_; ++s) {
    jobs.push_back([this, s, &frame, &per_shard] {
      // Unpinned call: replica choice, failover, and dead-marking work
      // exactly as for a query, and any serving replica's answer is the
      // shard's answer (replicas are bit-identical).
      auto resp = CallShard(s, frame, /*pinned_replica=*/-1,
                            options_.max_attempts,
                            /*hedging_allowed=*/false);
      if (!resp.ok()) return;
      auto health = DecodeHealthResponse(*resp);
      if (health.ok()) per_shard[s] = health->memory;
    });
  }
  RunJobs(std::move(jobs));
  index::IndexMemoryUsage total;
  for (const auto& m : per_shard) total.Add(m);
  // The coordinator's term -> df map, costed like InvertedIndex's
  // dictionary (one stored copy of each term here).
  std::shared_lock<std::shared_mutex> lock(mu_);
  for (const auto& [term, df] : term_df_) {
    total.dictionary_bytes +=
        term.size() + sizeof(std::string) + sizeof(TermDf) + 32;
  }
  return total;
}

index::SearchStats Coordinator::search_stats() const {
  const std::string frame = Encode(HealthRequest{});  // no memory walk
  const size_t n = num_shards_ * num_replicas_;
  std::vector<index::SearchStats> fresh(n);
  std::vector<char> got(n, 0);
  std::vector<std::function<void()>> jobs;
  jobs.reserve(n);
  for (size_t s = 0; s < num_shards_; ++s) {
    for (size_t r = 0; r < num_replicas_; ++r) {
      jobs.push_back([this, s, r, &frame, &fresh, &got] {
        auto resp = CallShard(s, frame, static_cast<int>(r),
                              /*max_attempts=*/2,
                              /*hedging_allowed=*/false);
        if (!resp.ok()) return;
        auto health = DecodeHealthResponse(*resp);
        if (!health.ok()) return;
        fresh[s * num_replicas_ + r] = health->search;
        got[s * num_replicas_ + r] = 1;
      });
    }
  }
  RunJobs(std::move(jobs));
  index::SearchStats total;
  {
    std::lock_guard<std::mutex> lock(telemetry_mu_);
    for (size_t i = 0; i < n; ++i) {
      index::SearchStats& cached = replica_search_stats_[i];
      if (got[i] != 0) {
        // Field-wise max: server counters are cumulative, so a stale
        // response can only under-report, never over-report.
        cached.queries = std::max(cached.queries, fresh[i].queries);
        cached.blocks_decoded =
            std::max(cached.blocks_decoded, fresh[i].blocks_decoded);
        cached.blocks_skipped =
            std::max(cached.blocks_skipped, fresh[i].blocks_skipped);
        cached.decode_cache_hits =
            std::max(cached.decode_cache_hits, fresh[i].decode_cache_hits);
      }
      total.Add(cached);
    }
  }
  return total;
}

}  // namespace remote
}  // namespace deepsurf
