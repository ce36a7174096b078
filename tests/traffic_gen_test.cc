// Tests for the shared load-generation library (traffic/traffic_gen.h):
// the byte-identity pin of the extracted Zipf query stream against the
// legacy inline generator, seed-determinism and exact phase boundaries
// of the Poisson arrival schedules, chaos-schedule reproducibility and
// safety invariants, and the RecordingWritableIndex replay contract the
// traffic harness's oracle depends on.

#include "traffic/traffic_gen.h"

#include <cmath>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "index/inverted_index.h"
#include "querylog/query_stream.h"
#include "synthweb/corpus.h"
#include "test_support.h"
#include "util/rng.h"

namespace deepsurf {
namespace traffic {
namespace {

synthweb::WebCorpus SmallCorpus() {
  synthweb::CorpusOptions copts;
  copts.num_deep_sites = 2;
  copts.num_surface_sites = 1;
  copts.min_rows = 20;
  copts.max_rows = 40;
  copts.seed = 99;
  return synthweb::BuildCorpus(copts);
}

// The pin: BuildZipfQueryStream must replay, byte for byte, the
// generator the serving benches once each carried inline. This is what
// lets the benches share the extracted library without their historical
// traffic changing underneath them.
TEST(ZipfQueryStreamTest, ByteIdenticalToLegacyInlineGenerator) {
  auto corpus = SmallCorpus();
  constexpr size_t kDistinct = 120;
  constexpr size_t kTotal = 400;

  // The legacy inline algorithm, verbatim.
  querylog::QueryStreamOptions qopts;
  qopts.seed = 515;
  querylog::QueryStream legacy_stream(&corpus, qopts);
  std::vector<std::string> legacy_pool;
  for (size_t i = 0; i < kDistinct; ++i) {
    legacy_pool.push_back(legacy_stream.Next().text);
  }
  Rng rng(717);
  ZipfSampler popularity(kDistinct, 1.0);
  std::vector<std::string> legacy_queries;
  for (size_t i = 0; i < kTotal; ++i) {
    legacy_queries.push_back(legacy_pool[popularity.Sample(&rng)]);
  }

  ZipfStreamOptions zopts;
  zopts.distinct = kDistinct;
  zopts.total = kTotal;
  auto stream = BuildZipfQueryStream(corpus, zopts);

  ASSERT_EQ(stream.pool.size(), kDistinct);
  ASSERT_EQ(stream.queries.size(), kTotal);
  ASSERT_EQ(stream.ranks.size(), kTotal);
  EXPECT_EQ(stream.pool, legacy_pool);
  EXPECT_EQ(stream.queries, legacy_queries);
  for (size_t i = 0; i < kTotal; ++i) {
    ASSERT_LT(stream.ranks[i], kDistinct);
    EXPECT_EQ(stream.queries[i], stream.pool[stream.ranks[i]]);
  }
}

TEST(ZipfQueryStreamTest, PoolOnlyWhenTotalIsZero) {
  auto corpus = SmallCorpus();
  ZipfStreamOptions zopts;
  zopts.distinct = 50;
  zopts.total = 0;
  auto stream = BuildZipfQueryStream(corpus, zopts);
  EXPECT_EQ(stream.pool.size(), 50u);
  EXPECT_TRUE(stream.queries.empty());
  EXPECT_TRUE(stream.ranks.empty());
}

std::vector<PhaseSpec> TestPhases() {
  std::vector<PhaseSpec> phases;
  phases.push_back({"steady", 1.0, 200.0, 200.0, 1.0, false, false});
  phases.push_back({"ramp", 2.0, 200.0, 800.0, 1.0, false, false});
  phases.push_back({"flash", 1.0, 800.0, 800.0, 1.4, false, false});
  return phases;
}

TEST(GenerateArrivalsTest, SeedDeterministic) {
  auto phases = TestPhases();
  auto a = GenerateArrivals(phases, 100, 42);
  auto b = GenerateArrivals(phases, 100, 42);
  ASSERT_EQ(a.size(), b.size());
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s) << i;  // bitwise, not approximate
    EXPECT_EQ(a[i].phase, b[i].phase) << i;
    EXPECT_EQ(a[i].rank, b[i].rank) << i;
  }
  auto c = GenerateArrivals(phases, 100, 43);
  bool differs = c.size() != a.size();
  for (size_t i = 0; !differs && i < a.size(); ++i) {
    differs = a[i].time_s != c[i].time_s || a[i].rank != c[i].rank;
  }
  EXPECT_TRUE(differs) << "different seeds produced the same schedule";
}

TEST(GenerateArrivalsTest, ExactPhaseBoundariesAndMonotoneTimes) {
  auto phases = TestPhases();
  auto arrivals = GenerateArrivals(phases, 100, 42);
  ASSERT_FALSE(arrivals.empty());
  // Expected count ~ 200 + 1000 + 800; allow generous Poisson slack.
  EXPECT_GT(arrivals.size(), 1500u);
  EXPECT_LT(arrivals.size(), 2500u);
  std::vector<double> starts = {0.0, 1.0, 3.0, 4.0};
  double prev = -1.0;
  for (const auto& a : arrivals) {
    ASSERT_LT(a.phase, phases.size());
    // Every arrival lies strictly inside its phase's half-open window.
    EXPECT_GE(a.time_s, starts[a.phase]);
    EXPECT_LT(a.time_s, starts[a.phase + 1]);
    EXPECT_GT(a.time_s, prev);  // strictly increasing across the schedule
    prev = a.time_s;
    EXPECT_LT(a.rank, 100u);
  }
}

// Retuning one phase must not perturb any other phase's stream: each
// phase consumes a fixed number of RNG forks, so phase p's arrivals
// (relative to its own start) depend only on the seed and on phase p.
TEST(GenerateArrivalsTest, PhasesAreRngIsolated) {
  auto phases = TestPhases();
  auto before = GenerateArrivals(phases, 100, 42);
  auto edited = phases;
  edited[0].qps_start = edited[0].qps_end = 50.0;  // retune phase 0 only
  edited[0].zipf_s = 2.0;
  auto after = GenerateArrivals(edited, 100, 42);

  auto tail = [](const std::vector<Arrival>& xs) {
    std::vector<Arrival> out;
    for (const auto& a : xs) {
      if (a.phase > 0) out.push_back(a);
    }
    return out;
  };
  auto t0 = tail(before);
  auto t1 = tail(after);
  ASSERT_EQ(t0.size(), t1.size());
  for (size_t i = 0; i < t0.size(); ++i) {
    EXPECT_EQ(t0[i].time_s, t1[i].time_s) << i;  // durations unchanged
    EXPECT_EQ(t0[i].rank, t1[i].rank) << i;
  }
}

TEST(GenerateArrivalsTest, FlashCrowdConcentratesTheHead) {
  std::vector<PhaseSpec> phases;
  phases.push_back({"cold", 2.0, 500.0, 500.0, 1.0, false, false});
  phases.push_back({"hot", 2.0, 500.0, 500.0, 1.6, false, false});
  auto arrivals = GenerateArrivals(phases, 200, 7);
  size_t head[2] = {0, 0}, total[2] = {0, 0};
  for (const auto& a : arrivals) {
    ++total[a.phase];
    if (a.rank < 5) ++head[a.phase];
  }
  ASSERT_GT(total[0], 0u);
  ASSERT_GT(total[1], 0u);
  double cold = static_cast<double>(head[0]) / static_cast<double>(total[0]);
  double hot = static_cast<double>(head[1]) / static_cast<double>(total[1]);
  EXPECT_GT(hot, cold) << "a higher Zipf exponent must concentrate the head";
}

TEST(BuildRollingChaosTest, ReproducibleSortedAndInWindow) {
  auto a = BuildRollingChaos(3, 2, 10.0, 16.0, 4.0, 7);
  auto b = BuildRollingChaos(3, 2, 10.0, 16.0, 4.0, 7);
  ASSERT_EQ(a.size(), b.size());
  // 3 slots x (kill + revive + slow + clear).
  EXPECT_EQ(a.size(), 12u);
  double prev = 0.0;
  for (size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].time_s, b[i].time_s) << i;
    EXPECT_EQ(a[i].kind, b[i].kind) << i;
    EXPECT_EQ(a[i].shard, b[i].shard) << i;
    EXPECT_EQ(a[i].replica, b[i].replica) << i;
    EXPECT_GE(a[i].time_s, 10.0);
    EXPECT_LT(a[i].time_s, 16.0);
    EXPECT_GE(a[i].time_s, prev);  // sorted
    prev = a[i].time_s;
    EXPECT_LT(a[i].shard, 3u);
    EXPECT_LT(a[i].replica, 2u);
  }
}

// Replaying the schedule must never leave a whole shard unservable: at
// most one replica of any shard is down at any instant, and a slowed
// replica's shard never has a concurrent kill (hedging always has a
// healthy peer to race).
TEST(BuildRollingChaosTest, NeverTakesOutAWholeShardGroup) {
  auto events = BuildRollingChaos(4, 2, 0.0, 12.0, 5.0, 11);
  std::set<std::pair<size_t, size_t>> dead;
  std::set<size_t> slowed_shards;
  for (const auto& ev : events) {
    switch (ev.kind) {
      case ChaosEvent::Kind::kKill: {
        size_t down_in_shard = 0;
        for (const auto& d : dead) {
          if (d.first == ev.shard) ++down_in_shard;
        }
        EXPECT_EQ(down_in_shard, 0u)
            << "second concurrent kill in shard " << ev.shard;
        EXPECT_EQ(slowed_shards.count(ev.shard), 0u)
            << "kill in a shard whose peer is slowed at t=" << ev.time_s;
        dead.insert({ev.shard, ev.replica});
        break;
      }
      case ChaosEvent::Kind::kRevive:
        EXPECT_EQ(dead.count({ev.shard, ev.replica}), 1u);
        dead.erase({ev.shard, ev.replica});
        break;
      case ChaosEvent::Kind::kSlow:
        for (const auto& d : dead) {
          EXPECT_NE(d.first, ev.shard)
              << "slow epoch on a shard with a dead replica at t="
              << ev.time_s;
        }
        slowed_shards.insert(ev.shard);
        break;
      case ChaosEvent::Kind::kClearSlow:
        slowed_shards.erase(ev.shard);
        break;
    }
  }
  EXPECT_TRUE(dead.empty()) << "schedule ended with a replica still dead";
  EXPECT_TRUE(slowed_shards.empty());
}

TEST(BuildRollingChaosTest, SingleReplicaOmitsKills) {
  auto events = BuildRollingChaos(3, 1, 0.0, 6.0, 4.0, 7);
  for (const auto& ev : events) {
    EXPECT_NE(ev.kind, ChaosEvent::Kind::kKill)
        << "killing the only replica forces partial results";
    EXPECT_NE(ev.kind, ChaosEvent::Kind::kRevive);
  }
  EXPECT_EQ(events.size(), 6u);  // slow + clear per slot
}

TEST(RecordingWritableIndexTest, RecordsOnlyNewDocsInApplyOrder) {
  index::InvertedIndex inner;
  RecordingWritableIndex recorder(&inner);

  std::vector<index::Document> batch;
  for (int i = 0; i < 4; ++i) {
    index::Document d;
    d.url = "http://a.example.com/" + std::to_string(i);
    d.title = "doc " + std::to_string(i);
    d.body = "alpha beta gamma " + std::to_string(i);
    batch.push_back(d);
  }
  batch.push_back(batch[1]);  // duplicate: inserted but not newly added
  ASSERT_TRUE(recorder.InsertBatch(batch).ok());
  ASSERT_TRUE(
      recorder.AddDocument("http://a.example.com/solo", "solo",
                           "delta epsilon", true, "a.example.com")
          .ok());
  // Re-adding an existing URL's content must not be recorded again.
  ASSERT_TRUE(
      recorder.AddDocument("http://a.example.com/solo", "solo",
                           "delta epsilon", true, "a.example.com")
          .ok());

  auto replay = recorder.recorded();
  ASSERT_EQ(replay.size(), 5u);
  EXPECT_EQ(recorder.recorded_size(), 5u);
  EXPECT_EQ(recorder.num_docs(), inner.num_docs());

  // The replay contract: feeding recorded() into a fresh index, in
  // order, reproduces the inner index exactly.
  index::InvertedIndex rebuilt;
  for (const auto& d : replay) {
    ASSERT_TRUE(rebuilt.InsertBatch({d}).ok());
  }
  ASSERT_EQ(rebuilt.num_docs(), inner.num_docs());
  testing_support::ExpectSameHits(inner.Search("alpha beta", 10),
                                  rebuilt.Search("alpha beta", 10),
                                  "replayed index");
  testing_support::ExpectSameHits(inner.Search("delta epsilon", 10),
                                  rebuilt.Search("delta epsilon", 10),
                                  "replayed index");
}

TEST(RecordingWritableIndexTest, ConcurrentWritersSerializeCleanly) {
  index::InvertedIndex inner;
  RecordingWritableIndex recorder(&inner);
  constexpr size_t kThreads = 4;
  constexpr size_t kPerThread = 25;
  std::vector<std::thread> threads;
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&recorder, t] {
      for (size_t i = 0; i < kPerThread; ++i) {
        index::Document d;
        d.url = "http://w" + std::to_string(t) + ".example.com/" +
                std::to_string(i);
        d.body = "word" + std::to_string(t) + " payload " + std::to_string(i);
        ASSERT_TRUE(recorder.InsertBatch({d}).ok());
      }
    });
  }
  for (auto& t : threads) t.join();
  EXPECT_EQ(recorder.recorded_size(), kThreads * kPerThread);
  EXPECT_EQ(inner.num_docs(), kThreads * kPerThread);

  // Whatever interleaving happened, the record matches the apply order.
  index::InvertedIndex rebuilt;
  ASSERT_TRUE(rebuilt.InsertBatch(recorder.recorded()).ok());
  ASSERT_EQ(rebuilt.num_docs(), inner.num_docs());
  testing_support::ExpectSameHits(inner.Search("payload", 10),
                                  rebuilt.Search("payload", 10),
                                  "concurrent replay");
}

}  // namespace
}  // namespace traffic
}  // namespace deepsurf
