// Ingest recovery tests: the ingest log's record discipline (consecutive
// seqs, budgeted reads, trimming acked history), the shard server's seq
// discipline, and the full kill -> miss-batches -> revive -> catch-up ->
// rejoin cycle at several shard x replica shapes — always against the
// byte-identity contract: a replica that failed and recovered must serve
// exactly what a replica that never failed serves, and one whose ack
// contradicts the committed placement must never serve again.

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <string>
#include <vector>

#include "index/inverted_index.h"
#include "remote/coordinator.h"
#include "remote/ingest_log.h"
#include "remote/shard_server.h"
#include "remote/transport.h"
#include "remote/wire.h"
#include "test_support.h"

namespace deepsurf {
namespace remote {
namespace {

using testing_support::ExpectSameHits;

// --- IngestLog: the record discipline. ---

TEST(IngestLogTest, AppendAndReadBack) {
  IngestLog log;
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.first_seq(), 0u);
  for (uint64_t s = 1; s <= 5; ++s) {
    ASSERT_TRUE(log.Append(s, "payload-" + std::to_string(s)).ok());
  }
  EXPECT_EQ(log.num_records(), 5u);
  EXPECT_EQ(log.first_seq(), 1u);
  EXPECT_EQ(log.last_seq(), 5u);

  auto all = log.Read(1, /*max_payload_bytes=*/1 << 20);
  ASSERT_EQ(all.size(), 5u);
  for (uint64_t s = 1; s <= 5; ++s) {
    EXPECT_EQ(all[s - 1].seq, s);
    EXPECT_EQ(all[s - 1].payload, "payload-" + std::to_string(s));
  }
  auto tail = log.Read(4, 1 << 20);
  ASSERT_EQ(tail.size(), 2u);
  EXPECT_EQ(tail[0].seq, 4u);
  // Outside the window: before the first record or past the head.
  EXPECT_TRUE(log.Read(0, 1 << 20).empty());
  EXPECT_TRUE(log.Read(6, 1 << 20).empty());
}

TEST(IngestLogTest, ReadHonoursByteBudgetButAlwaysReturnsOne) {
  IngestLog log;
  ASSERT_TRUE(log.Append(1, std::string(100, 'a')).ok());
  ASSERT_TRUE(log.Append(2, std::string(100, 'b')).ok());
  ASSERT_TRUE(log.Append(3, std::string(100, 'c')).ok());
  // Budget covers one and a half records: exactly one comes back.
  EXPECT_EQ(log.Read(1, 150).size(), 1u);
  // A budget smaller than any record still yields one record — a
  // catch-up that could never make progress would be a livelock.
  EXPECT_EQ(log.Read(2, 1).size(), 1u);
  EXPECT_EQ(log.Read(1, 300).size(), 3u);
}

TEST(IngestLogTest, RefusesZeroAndNonConsecutiveSeqs) {
  IngestLog log;
  EXPECT_FALSE(log.Append(0, "x").ok());
  // Any positive seq may seed an empty log (a node adopted mid-history)…
  ASSERT_TRUE(log.Append(7, "seven").ok());
  // …but after that, only the next seq is legal.
  EXPECT_FALSE(log.Append(7, "again").ok());
  EXPECT_FALSE(log.Append(9, "gap").ok());
  EXPECT_TRUE(log.Append(8, "eight").ok());
  EXPECT_EQ(log.first_seq(), 7u);
  EXPECT_EQ(log.last_seq(), 8u);
}

TEST(IngestLogTest, TrimThroughDropsOnlyTheAckedHead) {
  IngestLog log;
  for (uint64_t s = 1; s <= 5; ++s) {
    ASSERT_TRUE(log.Append(s, std::string(100, 'a' + char(s))).ok());
  }
  log.TrimThrough(0);  // nothing acked yet
  EXPECT_EQ(log.num_records(), 5u);
  log.TrimThrough(2);
  EXPECT_EQ(log.first_seq(), 3u);
  EXPECT_EQ(log.last_seq(), 5u);
  EXPECT_EQ(log.size_bytes(), 300u);  // payload bytes of seqs 3-5
  // Trimmed history is gone; what a replica still lacks is intact.
  EXPECT_TRUE(log.Read(2, 1 << 20).empty());
  auto kept = log.Read(3, 1 << 20);
  ASSERT_EQ(kept.size(), 3u);
  EXPECT_EQ(kept[0].payload, std::string(100, 'a' + char(3)));
  // A seq behind the window changes nothing.
  log.TrimThrough(1);
  EXPECT_EQ(log.first_seq(), 3u);
  // Through the head: empty, and the next batch seeds the log again.
  log.TrimThrough(5);
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(log.size_bytes(), 0u);
  EXPECT_EQ(log.first_seq(), 0u);
  ASSERT_TRUE(log.Append(6, "six").ok());
  EXPECT_EQ(log.first_seq(), 6u);
  EXPECT_FALSE(log.Append(8, "gap").ok());
  log.TrimThrough(100);  // past the head
  EXPECT_TRUE(log.empty());
}

// --- ShardServer: the seq discipline replay relies on. ---

/// Synchronously round-trips one frame through a server's queue.
Result<std::string> CallSync(ShardServer* server, std::string frame) {
  std::mutex mu;
  std::condition_variable cv;
  bool done = false;
  Result<std::string> out{Status::Unavailable("pending")};
  server->Enqueue(std::move(frame), [&](Result<std::string> r) {
    std::lock_guard<std::mutex> lock(mu);
    out = std::move(r);
    done = true;
    cv.notify_one();
  });
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return done; });
  return out;
}

std::string IngestFrame(uint64_t seq, const std::string& tag) {
  IngestRequest req;
  req.seq = seq;
  index::Document d;
  d.url = "http://" + tag + ".example.com/p";
  d.title = "t-" + tag;
  d.body = "alpha body " + tag;
  d.source_host = tag + ".example.com";
  req.docs.push_back(d);
  return Encode(req);
}

TEST(ShardServerIngestTest, ReusedSeqWithDifferentBytesIsRefused) {
  ShardServer server;
  ASSERT_TRUE(CallSync(&server, IngestFrame(1, "one")).ok());
  // Same seq, different contents: refused loudly, index untouched.
  auto refused = CallSync(&server, IngestFrame(1, "other"));
  ASSERT_FALSE(refused.ok());
  EXPECT_TRUE(refused.status().IsFailedPrecondition());
  EXPECT_EQ(server.index().num_docs(), 1u);
  // The verbatim re-send still replays idempotently.
  ASSERT_TRUE(CallSync(&server, IngestFrame(1, "one")).ok());
  EXPECT_EQ(server.index().num_docs(), 1u);
  EXPECT_GT(server.stats().ingest_replays, 0u);
  // Out-of-sequence is also refused.
  auto gap = CallSync(&server, IngestFrame(3, "three"));
  ASSERT_FALSE(gap.ok());
  EXPECT_TRUE(gap.status().IsFailedPrecondition());
}

TEST(ShardServerIngestTest, RetiredFetchFramesAreRejected) {
  // Servers keep no journal: a peer asking for one (the retired Fetch
  // frame, type 9) gets a decode error, and the index is untouched.
  ShardServer server;
  ASSERT_TRUE(CallSync(&server, IngestFrame(1, "one")).ok());
  for (MessageType retired :
       {MessageType::kFetchRequest, MessageType::kFetchResponse}) {
    std::string frame(1, static_cast<char>(retired));
    frame += std::string(16, '\0');  // the old request's two u64 fields
    auto resp = CallSync(&server, frame);
    ASSERT_FALSE(resp.ok());
    EXPECT_TRUE(resp.status().IsInvalidArgument());
  }
  EXPECT_EQ(server.index().num_docs(), 1u);
  EXPECT_EQ(server.stats().decode_errors, 2u);
}

// --- Coordinator: the full kill -> miss -> revive -> rejoin cycle. ---

std::vector<index::Document> MakeDocs(size_t n, const std::string& tag) {
  std::vector<index::Document> docs;
  docs.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    index::Document d;
    d.url = "http://" + tag + std::to_string(i) + ".example.com/p";
    d.title = "title " + tag + std::to_string(i);
    d.body = "alpha shared term" + std::to_string(i % 7) + " " + tag +
             " payload " + std::to_string(i);
    d.source_host = tag + std::to_string(i) + ".example.com";
    docs.push_back(d);
  }
  return docs;
}

std::vector<std::string> RecoveryQueries() {
  return {"alpha", "term0", "alpha payload", "term3 base", "late alpha",
          "shared term5"};
}

bool AllReplicasCurrent(const Coordinator& coordinator) {
  for (const auto& probe : coordinator.ProbeHealth()) {
    if (probe.last_acked_seq != probe.shard_head_seq) return false;
  }
  return true;
}

TEST(CatchUpTest, KilledReplicasRejoinByteIdenticalAcrossGridShapes) {
  const auto base = MakeDocs(40, "base");
  const auto missed = MakeDocs(25, "late");
  const auto queries = RecoveryQueries();
  index::InvertedIndex reference;
  ASSERT_TRUE(reference.InsertBatch(base).ok());
  ASSERT_TRUE(reference.InsertBatch(missed).ok());

  for (size_t shards : {1u, 3u, 8u}) {
    for (size_t replicas : {2u, 3u}) {
      SCOPED_TRACE("grid " + std::to_string(shards) + "x" +
                   std::to_string(replicas));
      LoopbackTransport loopback(shards, replicas, {});
      FlakyTransport flaky(&loopback, {});
      Coordinator coordinator(&flaky, {});
      flaky.SetReviveListener([&coordinator](size_t s, size_t r) {
        coordinator.RequestCatchUp(s, r);
      });
      ASSERT_TRUE(coordinator.InsertBatch(base).ok());

      // One replica of every shard dies, then misses a batch plus a
      // stream of singletons (several seqs to replay, some batches
      // empty on some shards).
      for (size_t s = 0; s < shards; ++s) flaky.Kill(s, s % replicas);
      ASSERT_TRUE(
          coordinator
              .InsertBatch({missed.begin(), missed.begin() + 10})
              .ok());
      for (size_t i = 10; i < missed.size(); ++i) {
        ASSERT_TRUE(coordinator.InsertBatch({missed[i]}).ok());
      }
      EXPECT_GT(coordinator.stats().ingest_stragglers, 0u);

      // Still serving (and byte-identical) while one replica per shard
      // is stale: currency-holding peers cover every shard.
      for (const auto& q : queries) {
        ExpectSameHits(reference.Search(q, 10), coordinator.Search(q, 10),
                       "one stale replica per shard: " + q);
      }

      // Revive -> listener -> catch-up -> rejoin.
      for (size_t s = 0; s < shards; ++s) flaky.Revive(s, s % replicas);
      ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/20000.0));
      EXPECT_TRUE(AllReplicasCurrent(coordinator));
      auto stats = coordinator.stats();
      EXPECT_GE(stats.replicas_rejoined, shards);
      EXPECT_GE(stats.batches_replayed, shards);
      EXPECT_GT(stats.catchup_bytes, 0u);

      // The rejoined cluster serves byte-identically — including from
      // the replicas that failed, which queries can now land on.
      for (int round = 0; round < 4; ++round) {
        for (const auto& q : queries) {
          ExpectSameHits(reference.Search(q, 10),
                         coordinator.Search(q, 10),
                         "after rejoin: " + q);
        }
      }
    }
  }
}

TEST(CatchUpTest, RejoinsUnderResponseDrops) {
  const auto base = MakeDocs(20, "base");
  const auto missed = MakeDocs(12, "late");
  index::InvertedIndex reference;
  ASSERT_TRUE(reference.InsertBatch(base).ok());
  ASSERT_TRUE(reference.InsertBatch(missed).ok());

  LoopbackTransport loopback(3, 2, {});
  FlakyTransport flaky(&loopback, {});
  remote::CoordinatorOptions copts;
  copts.call_timeout_ms = 20.0;
  copts.max_attempts = 6;
  copts.ingest_max_attempts = 8;
  copts.catchup_attempts = 6;
  Coordinator coordinator(&flaky, copts);
  flaky.SetReviveListener([&coordinator](size_t s, size_t r) {
    coordinator.RequestCatchUp(s, r);
  });
  ASSERT_TRUE(coordinator.InsertBatch(base).ok());

  // Kill one replica of every shard mid-stream, then turn on 25%
  // response loss for the rest of the run — acks get lost (the server
  // applied, the coordinator never heard), probes and replays must
  // retry through the noise.
  for (size_t s = 0; s < 3; ++s) flaky.Kill(s, 0);
  FlakyTransportOptions faults;
  faults.drop_response_probability = 0.25;
  faults.seed = 17;
  flaky.set_options(faults);
  for (const auto& d : missed) {
    ASSERT_TRUE(coordinator.InsertBatch({d}).ok());
  }
  for (size_t s = 0; s < 3; ++s) flaky.Revive(s, 0);

  // Catch-up attempts can lose races with the fault injection; sweep
  // until the cluster converges (bounded — the drop rate makes each
  // round succeed with overwhelming probability).
  bool current = false;
  for (int round = 0; round < 50 && !current; ++round) {
    coordinator.RequestCatchUpAll();
    ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/20000.0));
    current = AllReplicasCurrent(coordinator);
  }
  ASSERT_TRUE(current) << "cluster failed to converge under 25% drops";
  EXPECT_GE(coordinator.stats().replicas_rejoined, 3u);

  flaky.set_options({});  // byte-identity checked on a quiet fabric
  for (const auto& q : RecoveryQueries()) {
    ExpectSameHits(reference.Search(q, 10), coordinator.Search(q, 10),
                   "rejoined under drops: " + q);
  }
}

TEST(CatchUpTest, LostAckAloneHealsByProbeWithoutReplay) {
  // The replica applied the batch but its ack never arrived: catch-up's
  // probe discovers the replica is already at the head and rejoins it
  // with zero batches replayed — bookkeeping, not data transfer.
  const auto base = MakeDocs(10, "base");
  LoopbackTransport loopback(1, 2, {});
  FlakyTransport flaky(&loopback, {});
  remote::CoordinatorOptions copts;
  copts.call_timeout_ms = 20.0;
  copts.ingest_max_attempts = 1;  // one attempt: a lost ack stays lost
  Coordinator coordinator(&flaky, copts);
  ASSERT_TRUE(coordinator.InsertBatch(base).ok());

  // Drop every response: the next ingest applies on both replicas but
  // acks from neither.
  FlakyTransportOptions faults;
  faults.drop_response_probability = 1.0;
  flaky.set_options(faults);
  ASSERT_TRUE(coordinator.InsertBatch(MakeDocs(3, "late")).ok());
  EXPECT_GE(coordinator.stats().ingest_stragglers, 2u);
  flaky.set_options({});

  coordinator.RequestCatchUpAll();
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/10000.0));
  EXPECT_TRUE(AllReplicasCurrent(coordinator));
  auto stats = coordinator.stats();
  EXPECT_GE(stats.replicas_rejoined, 2u);
  EXPECT_EQ(stats.batches_replayed, 0u)
      << "an applied-but-unacked batch must not be re-sent";
}

TEST(CatchUpTest, ReviveWithoutListenerKeepsReplicaOutOfRotation) {
  const auto base = MakeDocs(15, "base");
  const auto missed = MakeDocs(5, "late");
  index::InvertedIndex reference;
  ASSERT_TRUE(reference.InsertBatch(base).ok());
  ASSERT_TRUE(reference.InsertBatch(missed).ok());

  LoopbackTransport loopback(2, 2, {});
  FlakyTransport flaky(&loopback, {});
  Coordinator coordinator(&flaky, {});  // deliberately no revive listener
  ASSERT_TRUE(coordinator.InsertBatch(base).ok());
  flaky.Kill(0, 1);
  flaky.Kill(1, 1);
  ASSERT_TRUE(coordinator.InsertBatch(missed).ok());
  // That batch queued a catch-up for each straggler. Let those give up
  // against the dead replicas first: a catch-up that ran only after the
  // revive would heal the replicas before the probes below could see
  // them stale.
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/10000.0));
  flaky.Revive(0, 1);
  flaky.Revive(1, 1);

  // The revived replicas hold a smaller corpus, and nothing told the
  // rejoin machinery. The currency gate is what keeps them out: probes
  // show them stale, and every query still serves byte-identically from
  // the replicas that acked.
  bool saw_stale = false;
  for (const auto& probe : coordinator.ProbeHealth()) {
    if (probe.last_acked_seq != probe.shard_head_seq) saw_stale = true;
  }
  EXPECT_TRUE(saw_stale);
  for (int round = 0; round < 6; ++round) {
    for (const auto& q : RecoveryQueries()) {
      ExpectSameHits(reference.Search(q, 10), coordinator.Search(q, 10),
                     "stale replicas barred: " + q);
    }
  }

  // An explicit sweep heals what the missing listener left behind.
  coordinator.RequestCatchUpAll();
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/10000.0));
  EXPECT_TRUE(AllReplicasCurrent(coordinator));
  EXPECT_GE(coordinator.stats().replicas_rejoined, 2u);
  for (const auto& q : RecoveryQueries()) {
    ExpectSameHits(reference.Search(q, 10), coordinator.Search(q, 10),
                   "after manual sweep: " + q);
  }
}

TEST(CatchUpTest, CoordinatorWalIsTheFallbackWhenNoPeerIsCurrent) {
  // Every replica of the shard misses the batch: no replica holds the
  // history, and catch-up replays it from the coordinator's staged log,
  // the one replay source.
  const auto base = MakeDocs(8, "base");
  const auto missed = MakeDocs(4, "late");
  index::InvertedIndex reference;
  ASSERT_TRUE(reference.InsertBatch(base).ok());
  ASSERT_TRUE(reference.InsertBatch(missed).ok());

  LoopbackTransport loopback(1, 3, {});
  FlakyTransport flaky(&loopback, {});
  remote::CoordinatorOptions copts;
  copts.call_timeout_ms = 10.0;
  copts.ingest_max_attempts = 2;
  Coordinator coordinator(&flaky, copts);
  flaky.SetReviveListener([&coordinator](size_t s, size_t r) {
    coordinator.RequestCatchUp(s, r);
  });
  ASSERT_TRUE(coordinator.InsertBatch(base).ok());
  for (size_t r = 0; r < 3; ++r) flaky.Kill(0, r);
  ASSERT_TRUE(coordinator.InsertBatch(missed).ok());
  EXPECT_GE(coordinator.stats().ingest_stragglers, 3u);
  // With no current replica at all, the shard cannot serve the new
  // docs; the committed state is the coordinator's promise, not a lie.
  EXPECT_EQ(coordinator.num_docs(), base.size() + missed.size());

  for (size_t r = 0; r < 3; ++r) flaky.Revive(0, r);
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/20000.0));
  EXPECT_TRUE(AllReplicasCurrent(coordinator));
  auto stats = coordinator.stats();
  EXPECT_GE(stats.batches_replayed, 1u);
  EXPECT_GE(stats.replicas_rejoined, 3u);
  for (const auto& q : RecoveryQueries()) {
    ExpectSameHits(reference.Search(q, 10), coordinator.Search(q, 10),
                   "coordinator-WAL fallback: " + q);
  }
}

TEST(CatchUpTest, IngestLogHoldsOnlyWhatAReplicaLacks) {
  LoopbackTransport loopback(2, 2, {});
  FlakyTransport flaky(&loopback, {});
  Coordinator coordinator(&flaky, {});
  flaky.SetReviveListener([&coordinator](size_t s, size_t r) {
    coordinator.RequestCatchUp(s, r);
  });
  ASSERT_TRUE(coordinator.InsertBatch(MakeDocs(16, "base")).ok());
  EXPECT_EQ(coordinator.stats().wal_bytes, 0u)
      << "a batch every replica acked is never replayed, so not kept";

  // Replica 1 of shard 0 dies; each batch it misses stays in the log.
  flaky.Kill(0, 1);
  size_t missed = 0;
  uint64_t wal_bytes = 0;
  for (const auto& d : MakeDocs(40, "late")) {
    if (coordinator.ShardForUrl(d.url) != 0) continue;
    ASSERT_TRUE(coordinator.InsertBatch({d}).ok());
    ++missed;
    const uint64_t now = coordinator.stats().wal_bytes;
    EXPECT_GT(now, wal_bytes) << "missed batch " << missed;
    wal_bytes = now;
    if (missed == 3) break;
  }
  ASSERT_EQ(missed, 3u);
  // Let the stragglers' catch-ups give up against the dead replica, so
  // the one the revive starts replays every missed batch.
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/10000.0));

  flaky.Revive(0, 1);
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/20000.0));
  EXPECT_TRUE(AllReplicasCurrent(coordinator));
  EXPECT_EQ(coordinator.stats().batches_replayed, missed);

  // Every replica is current again: the next ingest trims the log empty.
  ASSERT_TRUE(coordinator.InsertBatch(MakeDocs(6, "next")).ok());
  EXPECT_EQ(coordinator.stats().wal_bytes, 0u);
}

/// Forwards every call, but rewrites replica `victim`'s ack of ingest
/// batch `seq` to claim one more token for its first document. The
/// replica applied the batch; only its report contradicts the committed
/// placement, as a replica scoring with other IndexOptions would.
class ContradictingAckTransport : public Transport {
 public:
  ContradictingAckTransport(Transport* inner, size_t victim, uint64_t seq)
      : inner_(inner), victim_(victim), seq_(seq) {}

  void Call(size_t shard, size_t replica, std::string request, Callback done,
            CancelToken cancelled = nullptr) override {
    auto ingest = DecodeIngestRequest(request);
    if (replica == victim_ && ingest.ok() && ingest->seq == seq_) {
      done = [done = std::move(done)](Result<std::string> r) {
        if (r.ok()) {
          auto ack = DecodeIngestResponse(*r);
          if (ack.ok() && !ack->lengths.empty()) {
            ++ack->lengths[0];
            r = Encode(*ack);
          }
        }
        done(std::move(r));
      };
    }
    inner_->Call(shard, replica, std::move(request), std::move(done),
                 std::move(cancelled));
  }

  size_t num_shards() const override { return inner_->num_shards(); }
  size_t num_replicas() const override { return inner_->num_replicas(); }

 private:
  Transport* const inner_;
  const size_t victim_;
  const uint64_t seq_;
};

TEST(CatchUpTest, ContradictingAckPoisonsTheReplicaForGood) {
  const auto base = MakeDocs(10, "base");
  const auto late = MakeDocs(6, "late");
  index::InvertedIndex reference;
  ASSERT_TRUE(reference.InsertBatch(base).ok());
  ASSERT_TRUE(reference.InsertBatch(late).ok());

  LoopbackTransport loopback(1, 2, {});
  ContradictingAckTransport lying(&loopback, /*victim=*/0, /*seq=*/2);
  Coordinator coordinator(&lying, {});
  ASSERT_TRUE(coordinator.InsertBatch(base).ok());
  ASSERT_TRUE(coordinator.InsertBatch(late).ok());
  EXPECT_EQ(coordinator.stats().wal_bytes, 0u)
      << "a poisoned replica never catches up, so it holds no log";

  // No replay can mend a diverged index: catch-up refuses the replica.
  const uint64_t replayed = coordinator.stats().batches_replayed;
  coordinator.RequestCatchUp(0, 0);
  ASSERT_TRUE(coordinator.WaitForCatchUp(/*timeout_ms=*/10000.0));
  EXPECT_EQ(coordinator.stats().batches_replayed, replayed);

  const auto queries = RecoveryQueries();
  for (size_t i = 0; i < 20; ++i) {
    const std::string& q = queries[i % queries.size()];
    ExpectSameHits(reference.Search(q, 10), coordinator.Search(q, 10),
                   "one poisoned replica: " + q);
  }
  EXPECT_EQ(loopback.server(0, 0).stats().searches, 0u)
      << "the poisoned replica must never serve";
  EXPECT_EQ(loopback.server(0, 1).stats().searches, 20u);
}

}  // namespace
}  // namespace remote
}  // namespace deepsurf
