// E11: the million-user traffic harness. The paper's deployment serves
// surfaced deep-web content inside a commercial search engine's live
// query stream — heavy, bursty, and running on machines that fail. This
// harness replays that shape, scaled down: a seed-deterministic
// *open-loop* schedule (Poisson arrivals at an offered QPS — latency is
// measured from the scheduled arrival, so falling behind shows up as
// lateness instead of silently throttling the load) over five phases:
//
//   steady      baseline offered load
//   ramp        a diurnal climb to 4x baseline
//   flash       hot-key crowd: the Zipf exponent spikes, the head of
//               the query pool concentrates on the caches
//   churn       ingest-while-serving: the SurfacingDriver surfaces a
//               second corpus into the live index mid-traffic
//   chaos       rolling replica kills + slow-replica epochs against the
//               FlakyTransport fabric (remote target only). The chaos
//               window deliberately overlaps churn: replicas die *while
//               replicated ingest is in flight*, miss batches, and must
//               catch up through the write-ahead ingest log on revival
//               (the transport's revive listener feeds
//               Coordinator::RequestCatchUp) before they can serve again
//
// Both serving stacks run the same schedule: the in-process
// ShardedIndex and the remote shards x replicas cluster behind the
// coordinator. Per phase it reports p50/p99/p999 (from scheduled
// arrival), goodput under an SLO, shed/error counts, result-cache and
// decode-cache hit rates, and the coordinator's hedge/failover counters.
//
// Verdicts (exit code):
//   always gated — equivalence: every result sampled under load is
//     byte-identical to an exhaustive oracle over some corpus prefix
//     within the query's observation window (prefix replay of the
//     recorded churn ingest); chaos-never-fails: no query returns a
//     non-OK, non-shed status while replicas are being killed; and
//     recovery: after the fabric heals, every replica catches up to the
//     shard head and the settled cluster serves byte-identically — with
//     actual rejoins observed whenever chaos made replicas miss batches.
//   gated locally, report-only with --ci (timing on shared runners is
//     noise): the SLO claims — "sustains the offered chaos-phase QPS at
//     p99 under the SLO with one replica down" and per-phase goodput.
//
// --soak stretches the schedule (scale floor 8x, doubled offered load)
// for the nightly chaos-endurance run; verdict gating is unchanged.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "bench_common.h"
#include "crawler/crawler.h"
#include "crawler/surfacing_driver.h"
#include "index/inverted_index.h"
#include "index/sharded_index.h"
#include "net/fetcher.h"
#include "remote/coordinator.h"
#include "remote/transport.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"
#include "traffic/traffic_gen.h"
#include "util/stats.h"

namespace deepsurf {
namespace {

constexpr size_t kTopK = 10;
constexpr double kSloMs = 25.0;    ///< goodput threshold
constexpr double kShedSeconds = 1.0;  ///< per-request deadline (generous:
                                      ///< only true queueing collapse sheds)
constexpr size_t kSampleEvery = 13;  ///< equivalence-sample 1 in N arrivals
constexpr double kChaosSlowMs = 4.0;

bool SameHits(const std::vector<index::SearchHit>& a,
              const std::vector<index::SearchHit>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].doc != b[i].doc ||
        std::memcmp(&a[i].score, &b[i].score, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

/// One equivalence sample taken under load: the served hits plus the
/// corpus-size window [lo, hi] observed around the query. The result is
/// valid iff it matches the oracle over *some* prefix in that window.
struct Sample {
  size_t phase = 0;
  std::string query;
  std::vector<index::SearchHit> hits;
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool matched = false;
};

/// Counter snapshot taken at every phase boundary.
struct StatSnap {
  serve::EngineStats eng;
  index::SearchStats search;
  remote::CoordinatorStats coord;
};

struct PhaseRow {
  std::string name;
  double offered_qps = 0.0;
  double duration_s = 0.0;
  uint64_t issued = 0;
  uint64_t completed = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  uint64_t slo_ok = 0;
  uint64_t sampled = 0;
  double p50_ms = 0.0, p99_ms = 0.0, p999_ms = 0.0;
  double achieved_qps = 0.0;
  double goodput_qps = 0.0;
  double goodput_frac = 0.0;
  double cache_hit_rate = 0.0;
  uint64_t invalidations = 0;
  uint64_t blocks_decoded = 0;
  uint64_t blocks_skipped = 0;
  uint64_t decode_cache_hits = 0;
  double decode_cache_hit_rate = 0.0;
  uint64_t rpcs = 0, hedges = 0, hedge_wins = 0, failovers = 0,
           timeouts = 0, partials = 0;
};

struct TargetReport {
  std::string name;
  std::vector<PhaseRow> rows;
  uint64_t samples_taken = 0;
  uint64_t sample_mismatches = 0;
  bool settled_identical = true;
  uint64_t churn_docs = 0;
  double churn_start_s = 0.0, churn_end_s = 0.0;
  size_t chaos_events = 0;
  uint64_t chaos_errors = 0;
  uint64_t chaos_shed = 0;
  uint64_t chaos_partials = 0;
  double chaos_p99_ms = 0.0;
  double chaos_goodput_frac = 0.0;
  double chaos_offered_qps = 0.0;
  // Recovery outcome (remote target; trivially true in-process).
  bool all_replicas_current = true;  ///< post-heal: every acked seq == head
  uint64_t ingest_stragglers = 0;
  uint64_t replicas_rejoined = 0;
  uint64_t batches_replayed = 0;
  uint64_t catchup_bytes = 0;

  bool equivalence() const {
    return sample_mismatches == 0 && settled_identical;
  }

  /// Chaos made replicas miss batches mid-ingest; the WAL catch-up path
  /// must have healed every one of them. Stragglers without a single
  /// observed rejoin mean a replica stayed stale past the heal barrier.
  bool recovery() const {
    return all_replicas_current &&
           (ingest_stragglers == 0 || replicas_rejoined > 0);
  }
};

/// Everything one serving stack needs to run the schedule.
struct TargetSetup {
  std::string name;
  serve::Engine* engine = nullptr;
  index::WritableIndex* serving = nullptr;  ///< num_docs window reads
  traffic::RecordingWritableIndex* recorder = nullptr;  ///< churn sink
  remote::Coordinator* coordinator = nullptr;           ///< null = in-process
  remote::FlakyTransport* flaky = nullptr;              ///< null = no chaos
};

StatSnap Snap(const TargetSetup& t) {
  StatSnap s;
  s.eng = t.engine->stats();
  s.search = t.serving->search_stats();
  if (t.coordinator != nullptr) s.coord = t.coordinator->stats();
  return s;
}

/// Replays the recorded churn ingest into the oracle one document at a
/// time and checks every sample against the oracle at each prefix inside
/// its window. Returns the number of samples that matched no prefix.
uint64_t ReplaySamples(index::InvertedIndex* oracle,
                       const std::vector<index::Document>& replay,
                       std::vector<Sample> samples) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.lo < b.lo; });
  const size_t nbase = oracle->num_docs();
  size_t si = 0;
  std::vector<Sample> pending;
  uint64_t mismatches = 0;
  for (size_t p = nbase; p <= nbase + replay.size(); ++p) {
    if (p > nbase) {
      DS_CHECK(oracle->InsertBatch({replay[p - nbase - 1]}).ok());
      DS_CHECK(oracle->num_docs() == p)
          << "churn replay diverged from the recorded apply order";
    }
    while (si < samples.size() && samples[si].lo <= p) {
      pending.push_back(std::move(samples[si++]));
    }
    if (pending.empty()) continue;
    // The flash-crowd phases repeat hot queries; memoize per prefix.
    std::unordered_map<std::string, std::vector<index::SearchHit>> memo;
    for (auto& s : pending) {
      if (s.matched || p < s.lo || p > s.hi) continue;
      auto it = memo.find(s.query);
      if (it == memo.end()) {
        it = memo.emplace(s.query, oracle->Search(s.query, kTopK)).first;
      }
      if (SameHits(s.hits, it->second)) s.matched = true;
    }
    pending.erase(
        std::remove_if(pending.begin(), pending.end(),
                       [&](const Sample& s) {
                         if (s.matched) return true;
                         if (s.hi <= p) {
                           ++mismatches;  // window exhausted, never matched
                           return true;
                         }
                         return false;
                       }),
        pending.end());
  }
  mismatches += pending.size();  // windows past the final prefix (impossible)
  return mismatches;
}

TargetReport RunTarget(const TargetSetup& target,
                       const std::vector<traffic::PhaseSpec>& phases,
                       const std::vector<traffic::Arrival>& arrivals,
                       const std::vector<std::string>& pool,
                       const std::vector<traffic::ChaosEvent>& chaos,
                       const std::vector<index::Document>& base_docs,
                       net::SimulatedWeb* churn_web,
                       const std::vector<crawler::DiscoveredForm>& churn_forms,
                       size_t workers, uint64_t churn_seed) {
  const size_t num_phases = phases.size();
  std::vector<double> boundary(num_phases + 1, 0.0);
  for (size_t p = 0; p < num_phases; ++p) {
    boundary[p + 1] = boundary[p] + phases[p].duration_s;
  }

  // Window each phase to its full arrival count so the trackers agree
  // with batch percentiles exactly (nothing evicted).
  std::vector<size_t> per_phase(num_phases, 0);
  for (const auto& a : arrivals) ++per_phase[a.phase];
  size_t max_phase = 1;
  for (size_t c : per_phase) max_phase = std::max(max_phase, c);
  stats::PhaseLatencies latencies(num_phases, max_phase);

  std::vector<std::atomic<uint64_t>> issued(num_phases), shed(num_phases),
      errors(num_phases), slo_ok(num_phases), completed(num_phases);
  for (size_t p = 0; p < num_phases; ++p) {
    issued[p] = shed[p] = errors[p] = slo_ok[p] = completed[p] = 0;
  }
  std::mutex samples_mu;
  std::vector<Sample> samples;

  TargetReport report;
  report.name = target.name;
  report.chaos_events = (target.flaky != nullptr) ? chaos.size() : 0;

  std::atomic<bool> churn_done{true};
  size_t churn_phase = num_phases;
  for (size_t p = 0; p < num_phases; ++p) {
    if (phases[p].ingest_churn) churn_phase = p;
  }
  if (churn_phase < num_phases && target.recorder != nullptr) {
    churn_done = false;
  }

  std::vector<StatSnap> snaps(num_phases + 1);
  snaps[0] = Snap(target);

  // t = 0 for everyone: workers, churn, chaos, and the boundary monitor.
  stats::OpenLoopClock clock;

  std::thread churn_thread;
  if (!churn_done.load()) {
    churn_thread = std::thread([&] {
      clock.SleepUntil(boundary[churn_phase]);
      report.churn_start_s = clock.Now();
      net::ProbeScheduler scheduler(churn_web);
      crawler::SurfacingDriverOptions dopts;
      dopts.num_threads = 2;
      dopts.seed = churn_seed;
      crawler::SurfacingDriver driver(&scheduler, target.recorder, dopts);
      auto st = driver.Run(churn_forms);
      DS_CHECK(st.ok()) << "churn surfacing failed: "
                        << st.status().ToString();
      report.churn_end_s = clock.Now();
      report.churn_docs = target.recorder->recorded_size();
      churn_done.store(true);
    });
  }

  std::thread chaos_thread;
  if (target.flaky != nullptr && !chaos.empty()) {
    chaos_thread = std::thread([&] {
      for (const auto& ev : chaos) {
        clock.SleepUntil(ev.time_s);
        // Events fire on schedule even while replicated ingest is in
        // flight — that is the point: a replica killed mid-batch misses
        // it, is barred from serving (stale), and must stream the gap
        // from the write-ahead log when its revival triggers catch-up.
        switch (ev.kind) {
          case traffic::ChaosEvent::Kind::kKill:
            target.flaky->Kill(ev.shard, ev.replica);
            break;
          case traffic::ChaosEvent::Kind::kRevive:
            target.flaky->Revive(ev.shard, ev.replica);
            break;
          case traffic::ChaosEvent::Kind::kSlow:
            target.flaky->SetReplicaDelay(ev.shard, ev.replica, ev.delay_ms);
            break;
          case traffic::ChaosEvent::Kind::kClearSlow:
            target.flaky->SetReplicaDelay(ev.shard, ev.replica, 0.0);
            break;
        }
      }
    });
  }

  // Boundary monitor: snapshot counters at every interior boundary; the
  // final snapshot happens after the workers drain (so the last phase's
  // in-flight tail is counted).
  std::thread monitor([&] {
    for (size_t p = 1; p < num_phases; ++p) {
      clock.SleepUntil(boundary[p]);
      snaps[p] = Snap(target);
    }
  });

  std::atomic<size_t> next{0};
  auto worker = [&] {
    for (;;) {
      size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= arrivals.size()) return;
      const traffic::Arrival& a = arrivals[i];
      clock.SleepUntil(a.time_s);
      const bool sampled = (i % kSampleEvery) == 0;
      // The observation window opens before the query is issued...
      uint64_t lo = sampled ? target.serving->num_docs() : 0;
      auto res = target.engine->Search(
          pool[a.rank], kTopK, clock.AtOffset(a.time_s + kShedSeconds));
      double lat_ms = (clock.Now() - a.time_s) * 1e3;
      issued[a.phase].fetch_add(1, std::memory_order_relaxed);
      if (res.status.ok()) {
        completed[a.phase].fetch_add(1, std::memory_order_relaxed);
        latencies.Add(a.phase, lat_ms);
        if (lat_ms <= kSloMs) {
          slo_ok[a.phase].fetch_add(1, std::memory_order_relaxed);
        }
        if (sampled) {
          // ...and closes after it completed: the served corpus prefix
          // lies somewhere in [lo, hi].
          uint64_t hi = target.serving->num_docs();
          Sample s;
          s.phase = a.phase;
          s.query = pool[a.rank];
          s.hits = std::move(res.hits);
          s.lo = lo;
          s.hi = hi;
          std::lock_guard<std::mutex> lock(samples_mu);
          samples.push_back(std::move(s));
        }
      } else if (res.status.IsDeadlineExceeded()) {
        shed[a.phase].fetch_add(1, std::memory_order_relaxed);
      } else {
        errors[a.phase].fetch_add(1, std::memory_order_relaxed);
      }
    }
  };
  std::vector<std::thread> pool_threads;
  pool_threads.reserve(workers);
  for (size_t w = 0; w < workers; ++w) pool_threads.emplace_back(worker);
  for (auto& t : pool_threads) t.join();
  monitor.join();
  snaps[num_phases] = Snap(target);
  if (churn_thread.joinable()) churn_thread.join();
  if (chaos_thread.joinable()) chaos_thread.join();

  // Heal the fabric for the post-run settled check. Each Revive fires
  // the revive listener, which enqueues the replica for catch-up.
  if (target.flaky != nullptr) {
    for (const auto& ev : chaos) {
      if (ev.kind == traffic::ChaosEvent::Kind::kKill) {
        target.flaky->Revive(ev.shard, ev.replica);
      }
      if (ev.kind == traffic::ChaosEvent::Kind::kSlow) {
        target.flaky->SetReplicaDelay(ev.shard, ev.replica, 0.0);
      }
    }
  }
  // Recovery barrier: sweep anything still stale (an ack lost to a kill
  // with no revive event after it), drain the catch-up worker, then
  // demand that every replica's acked seq has reached its shard head —
  // the settled equivalence check below queries a cluster with no
  // excuses left.
  if (target.coordinator != nullptr) {
    target.coordinator->RequestCatchUpAll();
    if (!target.coordinator->WaitForCatchUp(/*timeout_ms=*/60000.0)) {
      report.all_replicas_current = false;
    }
    for (const auto& probe : target.coordinator->ProbeHealth()) {
      if (probe.last_acked_seq != probe.shard_head_seq) {
        report.all_replicas_current = false;
      }
    }
    remote::CoordinatorStats cs = target.coordinator->stats();
    report.ingest_stragglers = cs.ingest_stragglers;
    report.replicas_rejoined = cs.replicas_rejoined;
    report.batches_replayed = cs.batches_replayed;
    report.catchup_bytes = cs.catchup_bytes;
  }

  // --- Per-phase rows from the counter deltas. ---
  for (size_t p = 0; p < num_phases; ++p) {
    PhaseRow row;
    row.name = phases[p].name;
    row.offered_qps = 0.5 * (phases[p].qps_start + phases[p].qps_end);
    row.duration_s = phases[p].duration_s;
    row.issued = issued[p].load();
    row.completed = completed[p].load();
    row.shed = shed[p].load();
    row.errors = errors[p].load();
    row.slo_ok = slo_ok[p].load();
    row.p50_ms = latencies.Quantile(p, 0.50);
    row.p99_ms = latencies.Quantile(p, 0.99);
    row.p999_ms = latencies.Quantile(p, 0.999);
    row.achieved_qps =
        static_cast<double>(row.completed) / std::max(1e-9, row.duration_s);
    row.goodput_qps =
        static_cast<double>(row.slo_ok) / std::max(1e-9, row.duration_s);
    row.goodput_frac =
        row.issued == 0 ? 0.0
                        : static_cast<double>(row.slo_ok) /
                              static_cast<double>(row.issued);
    const StatSnap& a = snaps[p];
    const StatSnap& b = snaps[p + 1];
    uint64_t q = b.eng.queries - a.eng.queries;
    uint64_t hits = b.eng.cache_hits - a.eng.cache_hits;
    row.cache_hit_rate =
        q == 0 ? 0.0 : static_cast<double>(hits) / static_cast<double>(q);
    row.invalidations = b.eng.invalidations - a.eng.invalidations;
    // Plain subtraction is safe: Coordinator::search_stats is a monotone
    // census over every replica (max-merged snapshots), so consecutive
    // snapshots never go backwards even across failed probes.
    row.blocks_decoded = b.search.blocks_decoded - a.search.blocks_decoded;
    row.blocks_skipped = b.search.blocks_skipped - a.search.blocks_skipped;
    row.decode_cache_hits =
        b.search.decode_cache_hits - a.search.decode_cache_hits;
    uint64_t reads = row.decode_cache_hits + row.blocks_decoded;
    row.decode_cache_hit_rate =
        reads == 0 ? 0.0
                   : static_cast<double>(row.decode_cache_hits) /
                         static_cast<double>(reads);
    if (target.coordinator != nullptr) {
      row.rpcs = b.coord.rpcs - a.coord.rpcs;
      row.hedges = b.coord.hedges - a.coord.hedges;
      row.hedge_wins = b.coord.hedge_wins - a.coord.hedge_wins;
      row.failovers = b.coord.failovers - a.coord.failovers;
      row.timeouts = b.coord.timeouts - a.coord.timeouts;
      row.partials = b.coord.partial_results - a.coord.partial_results;
    }
    report.rows.push_back(row);

    if (phases[p].chaos) {
      report.chaos_errors += row.errors;
      report.chaos_shed += row.shed;
      report.chaos_partials += row.partials;
      report.chaos_p99_ms = row.p99_ms;
      report.chaos_goodput_frac = row.goodput_frac;
      report.chaos_offered_qps = row.offered_qps;
    }
  }

  // --- Equivalence: oracle prefix replay of everything sampled. ---
  index::IndexOptions oracle_opts;
  oracle_opts.enable_pruning = false;  // exhaustive scorer, zero shortcuts
  index::InvertedIndex oracle(oracle_opts);
  DS_CHECK(oracle.InsertBatch(base_docs).ok());
  report.samples_taken = samples.size();
  std::vector<index::Document> replay;
  if (target.recorder != nullptr) replay = target.recorder->recorded();
  report.sample_mismatches = ReplaySamples(&oracle, replay, std::move(samples));

  // Settled check: fabric healed, corpus final — the serving stack and
  // the fully-replayed oracle must agree query for query.
  for (size_t i = 0; i < std::min<size_t>(200, pool.size()); ++i) {
    if (!SameHits(target.serving->Search(pool[i], kTopK),
                  oracle.Search(pool[i], kTopK))) {
      report.settled_identical = false;
    }
  }
  return report;
}

void PrintTarget(const TargetReport& r) {
  std::printf("\n--- %s ---\n", r.name.c_str());
  std::printf("%8s | %7s %7s | %6s %5s %4s | %8s %8s %8s | %7s %7s | %6s %6s\n",
              "phase", "offered", "done/s", "issued", "shed", "err",
              "p50 ms", "p99 ms", "p999 ms", "goodput", "cache",
              "dcache", "hedges");
  for (const auto& row : r.rows) {
    std::printf(
        "%8s | %7.0f %7.0f | %6llu %5llu %4llu | %8.3f %8.3f %8.3f | "
        "%6.1f%% %6.1f%% | %5.1f%% %6llu\n",
        row.name.c_str(), row.offered_qps, row.achieved_qps,
        static_cast<unsigned long long>(row.issued),
        static_cast<unsigned long long>(row.shed),
        static_cast<unsigned long long>(row.errors), row.p50_ms, row.p99_ms,
        row.p999_ms, 100.0 * row.goodput_frac, 100.0 * row.cache_hit_rate,
        100.0 * row.decode_cache_hit_rate,
        static_cast<unsigned long long>(row.hedges));
  }
  if (r.churn_docs > 0) {
    std::printf("  churn: %llu docs surfaced into the live index in "
                "[%.2fs, %.2fs]\n",
                static_cast<unsigned long long>(r.churn_docs),
                r.churn_start_s, r.churn_end_s);
  }
  if (r.chaos_events > 0) {
    std::printf("  chaos: %zu events, %llu errors, %llu shed, %llu partial "
                "results\n",
                r.chaos_events,
                static_cast<unsigned long long>(r.chaos_errors),
                static_cast<unsigned long long>(r.chaos_shed),
                static_cast<unsigned long long>(r.chaos_partials));
    std::printf("  recovery: %llu stragglers, %llu rejoins, %llu batches "
                "replayed (%llu bytes); post-heal cluster %s\n",
                static_cast<unsigned long long>(r.ingest_stragglers),
                static_cast<unsigned long long>(r.replicas_rejoined),
                static_cast<unsigned long long>(r.batches_replayed),
                static_cast<unsigned long long>(r.catchup_bytes),
                r.all_replicas_current ? "fully current" : "STILL STALE");
  }
  std::printf("  equivalence: %llu samples under load, %llu mismatches; "
              "settled check %s\n",
              static_cast<unsigned long long>(r.samples_taken),
              static_cast<unsigned long long>(r.sample_mismatches),
              r.settled_identical ? "identical" : "DIVERGED");
}

void EmitJson(std::FILE* f, const std::vector<TargetReport>& reports,
              size_t docs, size_t pool_size, size_t workers, double scale,
              bool ci_mode, bool equivalence, bool never_fails, bool recovery,
              bool obs_complete, bool slo_chaos, bool slo_goodput) {
  std::fprintf(f,
               "{\n  \"bench\": \"bench_traffic\",\n  \"docs\": %zu,\n"
               "  \"pool_distinct\": %zu,\n  \"workers\": %zu,\n"
               "  \"scale\": %.2f,\n  \"slo_ms\": %.1f,\n"
               "  \"shed_deadline_s\": %.1f,\n  \"ci_mode\": %s,\n"
               "  \"targets\": [\n",
               docs, pool_size, workers, scale, kSloMs, kShedSeconds,
               ci_mode ? "true" : "false");
  for (size_t t = 0; t < reports.size(); ++t) {
    const auto& r = reports[t];
    std::fprintf(f, "    {\"target\": \"%s\",\n      \"phases\": [\n",
                 r.name.c_str());
    for (size_t p = 0; p < r.rows.size(); ++p) {
      const auto& row = r.rows[p];
      std::fprintf(
          f,
          "        {\"phase\": \"%s\", \"offered_qps\": %.0f, "
          "\"duration_s\": %.2f, \"issued\": %llu, \"completed\": %llu, "
          "\"shed\": %llu, \"errors\": %llu, \"achieved_qps\": %.0f, "
          "\"p50_ms\": %.3f, \"p99_ms\": %.3f, \"p999_ms\": %.3f, "
          "\"goodput_qps\": %.0f, \"goodput_frac\": %.4f, "
          "\"cache_hit_rate\": %.4f, \"invalidations\": %llu, "
          "\"blocks_decoded\": %llu, \"blocks_skipped\": %llu, "
          "\"decode_cache_hits\": %llu, \"decode_cache_hit_rate\": %.4f, "
          "\"rpcs\": %llu, \"hedges\": %llu, \"hedge_wins\": %llu, "
          "\"failovers\": %llu, \"timeouts\": %llu, \"partials\": %llu}%s\n",
          row.name.c_str(), row.offered_qps, row.duration_s,
          static_cast<unsigned long long>(row.issued),
          static_cast<unsigned long long>(row.completed),
          static_cast<unsigned long long>(row.shed),
          static_cast<unsigned long long>(row.errors), row.achieved_qps,
          row.p50_ms, row.p99_ms, row.p999_ms, row.goodput_qps,
          row.goodput_frac, row.cache_hit_rate,
          static_cast<unsigned long long>(row.invalidations),
          static_cast<unsigned long long>(row.blocks_decoded),
          static_cast<unsigned long long>(row.blocks_skipped),
          static_cast<unsigned long long>(row.decode_cache_hits),
          row.decode_cache_hit_rate,
          static_cast<unsigned long long>(row.rpcs),
          static_cast<unsigned long long>(row.hedges),
          static_cast<unsigned long long>(row.hedge_wins),
          static_cast<unsigned long long>(row.failovers),
          static_cast<unsigned long long>(row.timeouts),
          static_cast<unsigned long long>(row.partials),
          p + 1 < r.rows.size() ? "," : "");
    }
    std::fprintf(
        f,
        "      ],\n      \"samples\": %llu, \"sample_mismatches\": %llu, "
        "\"settled_identical\": %s,\n      \"churn_docs\": %llu, "
        "\"chaos_events\": %zu, \"chaos_errors\": %llu, "
        "\"chaos_shed\": %llu, \"chaos_partials\": %llu,\n"
        "      \"chaos_p99_ms\": %.3f, \"chaos_goodput_frac\": %.4f,\n"
        "      \"ingest_stragglers\": %llu, \"replicas_rejoined\": %llu, "
        "\"batches_replayed\": %llu, \"catchup_bytes\": %llu, "
        "\"all_replicas_current\": %s}%s\n",
        static_cast<unsigned long long>(r.samples_taken),
        static_cast<unsigned long long>(r.sample_mismatches),
        r.settled_identical ? "true" : "false",
        static_cast<unsigned long long>(r.churn_docs), r.chaos_events,
        static_cast<unsigned long long>(r.chaos_errors),
        static_cast<unsigned long long>(r.chaos_shed),
        static_cast<unsigned long long>(r.chaos_partials), r.chaos_p99_ms,
        r.chaos_goodput_frac,
        static_cast<unsigned long long>(r.ingest_stragglers),
        static_cast<unsigned long long>(r.replicas_rejoined),
        static_cast<unsigned long long>(r.batches_replayed),
        static_cast<unsigned long long>(r.catchup_bytes),
        r.all_replicas_current ? "true" : "false",
        t + 1 < reports.size() ? "," : "");
  }
  std::fprintf(
      f,
      "  ],\n  \"verdict\": {\"equivalence_under_load\": %s, "
      "\"chaos_never_fails\": %s, \"recovery\": %s, "
      "\"obs_complete\": %s, \"slo_chaos_sustained\": %s, "
      "\"slo_goodput\": %s, \"timing_gated\": %s}\n}\n",
      equivalence ? "true" : "false", never_fails ? "true" : "false",
      recovery ? "true" : "false", obs_complete ? "true" : "false",
      slo_chaos ? "true" : "false",
      slo_goodput ? "true" : "false", ci_mode ? "false" : "true");
}

int Run(int argc, char** argv) {
  const char* json_path = nullptr;
  bool ci_mode = false;
  bool soak = false;
  double scale = 1.0;
  size_t workers = 16;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
      json_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ci") == 0) {
      ci_mode = true;
    } else if (std::strcmp(argv[i], "--soak") == 0) {
      soak = true;
    } else if (std::strcmp(argv[i], "--scale") == 0 && i + 1 < argc) {
      scale = std::atof(argv[++i]);
    } else if (std::strcmp(argv[i], "--workers") == 0 && i + 1 < argc) {
      workers = static_cast<size_t>(std::atoi(argv[++i]));
    }
  }
  scale = std::max(0.1, scale);
  // Soak mode (the nightly endurance run): a minutes-long schedule at
  // doubled offered load, so chaos overlaps many more ingest batches and
  // the catch-up machinery is exercised dozens of times per run.
  double load = 1.0;
  if (soak) {
    scale = std::max(scale, 8.0);
    load = 2.0;
  }
  workers = std::max<size_t>(2, workers);

  bench::Header(
      "E11: open-loop traffic harness (flash crowds, churn, chaos)",
      "the serving stack survives a day of traffic compressed into "
      "seconds — ramps, hot-key crowds, live surfacing churn, and "
      "replica failures — without changing one result bit");

  // --- The base corpus both serving stacks start from. ---
  synthweb::CorpusOptions copts;
  copts.num_deep_sites = 10;
  copts.num_surface_sites = 4;
  copts.min_rows = 40;
  copts.max_rows = 120;
  copts.seed = 99;
  auto corpus = synthweb::BuildCorpus(copts);
  auto base_docs = synthweb::EntityDocuments(corpus);

  // The query pool (the stream the serving benches share; the arrival
  // schedule below draws ranks into it per phase).
  traffic::ZipfStreamOptions zopts;
  zopts.distinct = 1200;
  zopts.total = 0;  // only the pool; arrivals carry their own ranks
  auto stream = traffic::BuildZipfQueryStream(corpus, zopts);

  // --- The schedule: one day of traffic, compressed. ---
  std::vector<traffic::PhaseSpec> phases;
  phases.push_back(
      {"steady", 3.0 * scale, 400.0 * load, 400.0 * load, 1.0, false, false});
  phases.push_back(
      {"ramp", 5.0 * scale, 400.0 * load, 1600.0 * load, 1.0, false, false});
  phases.push_back(
      {"flash", 3.0 * scale, 1600.0 * load, 1600.0 * load, 1.35, false,
       false});
  phases.push_back(
      {"churn", 4.0 * scale, 400.0 * load, 400.0 * load, 1.0, true, true});
  phases.push_back(
      {"chaos", 6.0 * scale, 400.0 * load, 400.0 * load, 1.0, false, true});
  auto arrivals =
      traffic::GenerateArrivals(phases, stream.pool.size(), /*seed=*/2026);
  // The chaos window opens with churn and runs to the end: kills land on
  // replicas with ingest in flight (they miss batches and must catch up
  // through the WAL), then keep rolling through the dedicated chaos
  // phase after ingest has quiesced.
  double chaos_start = -1.0, chaos_end = 0.0, total_s = 0.0;
  for (const auto& ph : phases) {
    if (ph.chaos) {
      if (chaos_start < 0.0) chaos_start = total_s;
      chaos_end = total_s + ph.duration_s;
    }
    total_s += ph.duration_s;
  }
  // Leave margin inside the window so kills land after its first
  // arrivals and the last revive's catch-up overlaps live traffic.
  auto chaos_events = traffic::BuildRollingChaos(
      /*shards=*/2, /*replicas=*/2, chaos_start + 0.2, chaos_end - 0.2,
      kChaosSlowMs, /*seed=*/7);
  // Guarantee a mid-ingest outage regardless of how fast the surfacing
  // driver finishes: pull shard 0's kill ahead of the churn phase so the
  // replica is already dead when the replicated batches dispatch (every
  // batch it misses is a straggler), and leave its revive where the
  // schedule put it — under live traffic, where the rejoin must stream
  // the missed batches back through the WAL catch-up path. Moving the
  // existing kill (rather than adding one) preserves the rolling
  // invariant that at most one replica of any shard is ever down.
  for (auto& ev : chaos_events) {
    if (ev.shard == 0 && ev.kind == traffic::ChaosEvent::Kind::kKill) {
      ev.time_s = std::max(0.1, chaos_start - 0.1);
    }
  }
  std::stable_sort(chaos_events.begin(), chaos_events.end(),
                   [](const traffic::ChaosEvent& a,
                      const traffic::ChaosEvent& b) {
                     return a.time_s < b.time_s;
                   });
  std::printf("schedule: %zu arrivals over %.1fs, %zu-query pool, "
              "%zu workers, %zu chaos events\n",
              arrivals.size(), total_s, stream.pool.size(), workers,
              chaos_events.size());

  // --- The churn corpus surfaced mid-run (crawled once, shared). ---
  synthweb::CorpusOptions churn_opts;
  churn_opts.num_deep_sites = 2;
  churn_opts.num_surface_sites = 1;
  churn_opts.min_rows = 60;
  churn_opts.max_rows = 100;
  churn_opts.post_probability = 0.0;
  churn_opts.seed = 1234;
  auto churn_corpus = synthweb::BuildCorpus(churn_opts);
  std::vector<crawler::DiscoveredForm> churn_forms;
  {
    index::InvertedIndex scratch;  // forms only; pages are discarded
    crawler::Crawler crawl(churn_corpus.web.get(), &scratch, {});
    DS_CHECK(crawl.Crawl({churn_corpus.directory_url}).ok());
    churn_forms = crawl.forms();
  }

  // Serving-side scoring options: the compressed path with a decode
  // cache, i.e. the production configuration the repo converged on.
  index::IndexOptions serving_opts;
  serving_opts.compress_postings = true;

  // One tracer over both serving stacks: sampled span trees from under
  // open-loop load (hedges, cancellations, queue waits during chaos)
  // become the OBS_ spans artifact; the no-orphan contract on them is an
  // always-gated verdict. Every engine, coordinator, and shard server
  // owns its counters; the metrics artifact is one pane block per
  // instance, collected before each target is torn down.
  std::string pane;
  obs::TracerOptions topts;
  topts.sample_every = 1009;  // a bounded set of exemplar span trees
  topts.slo_ms = kSloMs;      // over-SLO stragglers commit + slow log
  obs::Tracer tracer(topts);

  // Chaos kills make the coordinator log expected catch-up warnings
  // mid-run; keep the harness output readable and restore the previous
  // threshold when Run exits.
  ScopedLogThreshold quiet_expected_faults(LogSeverity::kError);

  std::vector<TargetReport> reports;

  // --- Target 1: in-process ShardedIndex. ---
  {
    index::ShardedIndexOptions sopts;
    sopts.num_shards = 4;
    sopts.index = serving_opts;
    index::ShardedIndex sharded(sopts);
    DS_CHECK(sharded.InsertBatch(base_docs).ok());
    traffic::RecordingWritableIndex recorder(&sharded);
    serve::EngineOptions eopts;
    eopts.default_top_k = kTopK;
    eopts.tracer = &tracer;
    serve::Engine engine(&sharded, eopts);
    engine.SetIngestSource("surfacing-churn");
    TargetSetup t;
    t.name = "sharded-inproc";
    t.engine = &engine;
    t.serving = &sharded;
    t.recorder = &recorder;
    reports.push_back(RunTarget(t, phases, arrivals, stream.pool,
                                chaos_events, base_docs,
                                churn_corpus.web.get(), churn_forms, workers,
                                /*churn_seed=*/77));
    PrintTarget(reports.back());
    pane += bench::PaneBlock("sharded-inproc engine", engine.metrics());
  }

  // --- Target 2: the remote cluster behind the chaos fabric. ---
  {
    remote::ShardServerOptions server_opts;
    server_opts.index = serving_opts;
    remote::LoopbackTransport loopback(2, 2, server_opts);
    remote::FlakyTransport flaky(&loopback, {});
    remote::CoordinatorOptions ropts;
    ropts.hedge_max_ms = 2.0;  // hedge well before the slow-replica epochs
    ropts.tracer = &tracer;
    remote::Coordinator coordinator(&flaky, ropts);
    // Revive-without-catch-up is impossible by construction: the fabric
    // reports every revival straight into the rejoin machinery.
    flaky.SetReviveListener([&coordinator](size_t s, size_t r) {
      coordinator.RequestCatchUp(s, r);
    });
    DS_CHECK(coordinator.InsertBatch(base_docs).ok());
    traffic::RecordingWritableIndex recorder(&coordinator);
    serve::EngineOptions eopts;
    eopts.default_top_k = kTopK;
    eopts.tracer = &tracer;
    serve::Engine engine(&coordinator, eopts);
    engine.SetIngestSource("surfacing-churn");
    TargetSetup t;
    t.name = "remote-coordinator";
    t.engine = &engine;
    t.serving = &coordinator;
    t.recorder = &recorder;
    t.coordinator = &coordinator;
    t.flaky = &flaky;
    reports.push_back(RunTarget(t, phases, arrivals, stream.pool,
                                chaos_events, base_docs,
                                churn_corpus.web.get(), churn_forms, workers,
                                /*churn_seed=*/77));
    PrintTarget(reports.back());
    pane += bench::PaneBlock("remote-coordinator engine", engine.metrics());
    pane += bench::PaneBlock("remote-coordinator coordinator",
                             coordinator.metrics());
    bench::AppendServerBlocks("remote-coordinator", loopback, &pane);
  }

  // --- Verdicts. ---
  bool equivalence = true, never_fails = true, recovery = true,
       slo_goodput = true;
  for (const auto& r : reports) {
    if (!r.equivalence()) equivalence = false;
    if (r.chaos_errors != 0) never_fails = false;
    if (!r.recovery()) recovery = false;
    for (const auto& row : r.rows) {
      if (row.goodput_frac < 0.95) slo_goodput = false;
    }
  }
  const TargetReport& remote_report = reports.back();
  bool slo_chaos = remote_report.chaos_p99_ms > 0.0 &&
                   remote_report.chaos_p99_ms <= kSloMs &&
                   remote_report.chaos_goodput_frac >= 0.95;
  bool obs_complete = bench::DumpObs("bench_traffic", json_path, pane, tracer);

  std::printf("\nverdicts:\n");
  std::printf("  [%s] equivalence under load: every sampled result matches "
              "the exhaustive oracle over a prefix in its window\n",
              equivalence ? "PASS" : "FAIL");
  std::printf("  [%s] chaos never fails a query: 0 errors while replicas "
              "die (partial results allowed, observed %llu)\n",
              never_fails ? "PASS" : "FAIL",
              static_cast<unsigned long long>(remote_report.chaos_partials));
  std::printf("  [%s] recovery: replicas killed mid-ingest rejoined via "
              "WAL catch-up (%llu rejoins, %llu batches replayed) and the "
              "healed cluster is fully current\n",
              recovery ? "PASS" : "FAIL",
              static_cast<unsigned long long>(
                  remote_report.replicas_rejoined),
              static_cast<unsigned long long>(
                  remote_report.batches_replayed));
  std::printf("  [%s]%s sustains %.0f qps at p99 %.3f ms (SLO %.0f ms) "
              "with one replica down\n",
              slo_chaos ? "PASS" : "FAIL", ci_mode ? " (report-only)" : "",
              remote_report.chaos_offered_qps, remote_report.chaos_p99_ms,
              kSloMs);
  std::printf("  [%s]%s goodput >= 95%% of offered load in every phase\n",
              slo_goodput ? "PASS" : "FAIL", ci_mode ? " (report-only)" : "");
  std::printf("  [%s] observability: every span tree committed under load "
              "(hedges, cancellations, chaos) is complete\n",
              obs_complete ? "PASS" : "FAIL");

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f != nullptr) {
      EmitJson(f, reports, base_docs.size(), stream.pool.size(), workers,
               scale, ci_mode, equivalence, never_fails, recovery,
               obs_complete, slo_chaos, slo_goodput);
      std::fclose(f);
      std::printf("json written to %s\n", json_path);
    }
  }

  bool pass = equivalence && never_fails && recovery && obs_complete;
  if (!ci_mode) pass = pass && slo_chaos && slo_goodput;
  bench::Verdict(
      pass,
      "open-loop traffic across ramps, flash crowds, live churn, and "
      "rolling replica failures overlapping ingest: results stay "
      "byte-identical to the exhaustive oracle, chaos never fails a "
      "query, and killed replicas rejoin via WAL catch-up");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace deepsurf

int main(int argc, char** argv) { return deepsurf::Run(argc, argv); }
