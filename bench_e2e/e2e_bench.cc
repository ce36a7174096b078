// Copyright 2026 The deepsurf Authors.
//
// End-to-end benchmark: both halves of deepsurf through their
// public APIs, closed-loop with one client, traced from outside.
//
//   e2e_bench --workload surface|local_serve|remote_churn --seed N
//             --seconds S --trace 0|1 [--spans PATH]
//
// bench_e2e/run.py builds and runs it (see BENCHMARK.json). Everything
// derives from the one seed: the surfacing web, the served corpus, the
// query pool and its draws, and remote_churn's second web. The program
// only ever sees the generated inputs. The last stdout line is the result
// JSON; a failed output check exits 1 without it.
//
// Pipeline: generated web -> crawler::Crawler -> crawler::SurfacingDriver
// (net::ProbeScheduler, the core pipeline, html) -> index::ShardedIndex or
// remote::Coordinator -> serve::Engine. Every run reports every end-to-end
// metric, so every workload runs both halves:
//
//   surfacing  one pass of the SurfacingDriver (one thread) over a crawled
//              200-form web, as kChunks SurfacingDriver runs over
//              round-robin slices of the work-list. surface_pages_per_s is
//              pages newly indexed / the runs' wall time;
//              site_fetches_per_page (requests that reached simulated
//              sites / pages newly indexed: the paper's light load on each
//              site) and record_coverage are counts and repeat exactly for
//              a seed.
//   serving    one client thread replaying a Zipf stream over a 12288-query
//              pool (3x the engine's default 4096-entry result cache)
//              through serve::Engine. query_qps, miss_p50_ms (index misses
//              only) and query_p99_ms (all queries) are medians over
//              kSlices slices of the window (remote_churn: over its kChunks
//              client phases, with the rate taken over the first
//              kChurnRateQueries queries of each phase).
//   setup_s    median of 3 or more set-ups (as many as fill 1.5 s, about
//              8 on surface): building the webs and the query stream, the
//              crawl, and the base ingest. The cache warm-up is not in it,
//              because in surface and local_serve it can only follow the
//              surfacing that the window measures. rss_mb is the peak
//              before any check allocates.
//
// Every timed end-to-end metric (setup_s, surface_pages_per_s, query_qps,
// miss_p50_ms, query_p99_ms) is reported at a reference box speed: a
// fixed allocation loop (Pacer), timed in a fresh process, runs before
// each set-up, SurfacingDriver run and client slice and once after the
// window. Each SurfacingDriver run's time is multiplied by 80 ms / (the
// probe just before it); the other times are multiplied, and rates
// divided, by 80 ms / (the run's median probe). The raw figures are
// printed beside them.
//
// Workloads:
//
//   surface       The paper's contribution: core, net, html and synthweb do
//                 the work. Passes into a fresh 4-shard index fill the
//                 window; then seconds/2 of serving over the ~5.8k pages the
//                 last pass surfaced. That small index is the case where
//                 block-max skipping and the decode cache never engage (0
//                 blocks skipped, 0 decode-cache hits on seed 1), so index
//                 changes aimed at large corpora should leave it flat.
//   local_serve   The read path at a size where skipping and the decode
//                 cache engage: ~50k entity documents in a compressed
//                 4-shard ShardedIndex, plus one surfacing pass into that
//                 live index before the window, then `seconds` of serving.
//                 No RPC.
//   remote_churn  The same base documents on 2 shards x 2 replicas behind a
//                 remote::Coordinator over LoopbackTransport (no faults). A
//                 second web is surfaced into the live cluster as kChunks
//                 SurfacingDriver runs, and after each run the client serves
//                 seconds/kChunks. Each client phase therefore starts on a
//                 result cache that the run's committed batches made stale,
//                 and replication and the write-ahead log land in the write
//                 rate (surface_pages_per_s). Writer and client never
//                 overlap, so neither how ingest is batched nor contention
//                 between reads and writes is measured here.
//
// Noise rules. Each removes a noise source measured on this tree on a
// 4-vCPU VM that gives about one effective core (1/2/4-thread spin loop:
// 42/83/163 ms), with 5 seeds per figure unless stated:
//
//   * One client thread, closed loop, no arrival schedule, no sleeping.
//     Open-loop latency waits for virtual time (ROADMAP item 6).
//   * No median over cache hits: miss_p50_ms covers index misses only.
//   * In-process shards are scanned on the client thread
//     (parallel_search = false), and each remote shard server runs one
//     worker behind one coordinator fan-out thread. With the default pools
//     remote_churn read 2.8k-8.1k qps and a p99 of 1.1-5.2 ms; with one
//     worker each, 21k-24k qps and 0.30-0.33 ms. These pools are therefore
//     not measured here; a change to them brings its own evidence.
//   * remote_churn alternates writer and client instead of running them
//     at once. Concurrent, the two threads and the RPC threads shared one
//     core and qps swung 1.1k-5.4k (p99 0.9-9.6 ms) across seeds, and
//     1.8k-5.9k between slices of one run.
//   * remote_churn pins all its threads to one CPU. Every remote call
//     crosses threads, and unpinned its latency followed the host: in
//     alternating runs of one seed, unpinned read 7.8k-14.3k qps (slices
//     2.5k-18.6k, p99 0.37-1.30 ms), pinned 8.1k-9.0k qps (slices
//     7.0k-11.4k, p99 0.56-0.59 ms). Pinned, it measures the cluster's
//     cost on one core, which is what this VM reliably has.
//   * One SurfacingDriver thread, so the probe scheduler's in-flight
//     coalescing stays idle.
//   * Generated webs have a fixed composition (WebShape): synthweb's
//     BuildCorpus draws each site's domain, and 24 such sites read
//     0.40-0.92 record_coverage over six seeds.
//   * Medians over serving slices: a fixed spin loop read 47 ms, then
//     95 ms for a one-second burst. The surfacing rate instead scales each
//     SurfacingDriver run by the probe just before it, since the runs'
//     rates differ by their forms (492-938 pages/s within one pass), so
//     their median jumped between runs of one seed (see
//     SurfacingEndToEnd).
//   * Times at a reference box speed. The VM's speed drifts over minutes.
//     Three sets of seeds 101-110 on the same code, tens of minutes apart,
//     read surface_pages_per_s 862, 682 and 1041 and surface miss_p50_ms
//     0.032, 0.045 and 0.028 ms (medians), while the allocation loop, run
//     before and after each run, read 92, 126 and 77 ms. Each run scaled by
//     its own loop time, the sets read 1046, 1058 and 1056 pages/s and
//     0.0286, 0.0290 and 0.0292 ms. The spin loop rose only 18% while
//     surfacing slowed 26%, so it is not the scale. Two back-to-back sets
//     of seeds 101-110 on this code then moved by up to 30% raw and by at
//     most 9% scaled, on every metric and workload.
//   * Counters are read as deltas over the window from each component's own
//     private registry, and every ratio must lie in [0, 1]. This keeps a
//     shared registry's cumulative counts (ROADMAP item 1) out of every
//     number.
//
// How the metrics interact (later changes cite these by metric and
// workload; figures are traced runs of seeds 3 and 7):
//
//   * Site time. A fifth of surfacing wall time is inside the sites'
//     Handle (synthweb.handle_share 0.20-0.22 on every workload). A change
//     to src/synthweb moves surface_pages_per_s without improving the
//     system; synthweb.handle_share shows it.
//   * Duplicate pages. crawler.new_page_frac is 0.31-0.35: most surfaced
//     URLs fetch a page the index already holds, and each still costs a
//     site fetch. Avoiding them lowers site_fetches_per_page;
//     record_coverage catches a change that does so by surfacing less.
//   * Zero-URL forms. core.zero_url_forms is 24-29 of 196 analysed forms,
//     mostly store locators: their probes count in site_fetches_per_page
//     and yield no page.
//   * Cache invalidation under churn. Each committed batch bumps the
//     ingest epoch, so every remote_churn client phase starts on a cache
//     the preceding SurfacingDriver run made stale: serve.cache_hit_frac is
//     0.70 there against 0.85 on local_serve. Because writer and client
//     alternate, query_qps on remote_churn depends on the number of client
//     phases, not on how ingest is batched. serve.invalidations_per_batch
//     (stale entries found / committed batches) falls whenever batches get
//     smaller, with no change to serving.
//   * Skipping needs a large index. On local_serve a miss decodes 28 blocks
//     and skips 3.2, with 0.21 of block reads served by the decode cache;
//     on surface it decodes 3.2 and skips none.
//   * Remote fan-out. A remote miss makes a stats round and a search round
//     to each of 2 shards: remote.rpcs_per_miss is 4.02 (0.016 hedges
//     per miss). ROADMAP item 3 predicts it halves and miss_p50_ms falls on
//     remote_churn; a cost of keeping df at ingest time would show in
//     surface_pages_per_s on the same workload.
//   * Tracing. obs.trace_overhead_frac (decorators plus the program's
//     1-in-16 sampled spans) read -0.08 to 0.00 on surface, 0.02-0.16 on
//     local_serve and -0.03 to 0.11 on remote_churn over seeds 3, 5, 7 and
//     11: the two runs it compares differ by noise of that size. Per-layer
//     rows come only from traced runs.

#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <set>
#include <tuple>
#include <string>
#include <thread>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/pipeline.h"
#include "crawler/crawler.h"
#include "crawler/surfacing_driver.h"
#include "html/parser.h"
#include "html/tokenizer.h"
#include "html/text.h"
#include "index/inverted_index.h"
#include "index/sharded_index.h"
#include "net/fetcher.h"
#include "net/url.h"
#include "obs/trace.h"
#include "probes.h"
#include "remote/coordinator.h"
#include "remote/transport.h"
#include "serve/engine.h"
#include "synthweb/corpus.h"
#include "synthweb/deep_site.h"
#include "synthweb/domain.h"
#include "synthweb/surface_site.h"
#include "synthweb/vocab.h"
#include "traffic/traffic_gen.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/stats.h"
#include "util/strings.h"

namespace deepsurf {
namespace e2e {
namespace {

using Clock = std::chrono::steady_clock;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

const Clock::time_point kProcessStart = Clock::now();

/// Progress line with the time since start, so a slow phase is visible.
void Note(const char* what) {
  std::printf("[%7.2f s] %s\n", SecondsSince(kProcessStart), what);
  std::fflush(stdout);
}

// --- Sizes. ---
constexpr size_t kTopK = 10;

/// Shape of a generated web. Composition is fixed: every domain gets
/// `sites_per_domain` deep sites whose hidden tables are Zipf-sized by
/// their rank within the domain, and the same ranks are POST forms on
/// every seed. The seed only draws each site's content, form quirks and
/// rendering, so the workload differs between seeds without its mix
/// drifting (with synthweb::BuildCorpus's per-site random domains, 24
/// sites read 0.40-0.92 record coverage over six seeds).
struct WebShape {
  size_t sites_per_domain = 0;
  size_t min_rows = 0;
  size_t max_rows = 0;
  /// The last-ranked site of this many domains serves a POST form.
  size_t post_domains = 0;
  size_t surface_sites = 0;
};

/// The surfacing corpus: 200 deep sites of 29-200 rows, 4 of them POST.
constexpr WebShape kSurfShape = {20, 20, 200, 4, 3};
/// The base corpus served by local_serve and remote_churn: ~50k entity
/// documents.
constexpr WebShape kBaseShape = {8, 250, 1400, 0, 0};
/// The surfacing work-list runs as this many SurfacingDriver runs over
/// round-robin slices of the forms, each after a box-speed probe.
/// Coprime with the 10 domains, so every slice holds every domain and
/// every size rank (with 8, a slice held only odd or only even domains
/// and slice rates ranged 546-1670 pages/s within one run).
constexpr size_t kChunks = 9;
/// Serving statistics are medians over this many equal slices of the
/// window.
constexpr size_t kSlices = 10;
/// Query pool: 3x the engine's default 4096-entry result cache.
constexpr size_t kPoolDistinct = 12288;
constexpr size_t kStreamLength = 200000;
constexpr size_t kWarmupQueries = 12000;
/// remote_churn's rate is taken over the first this many queries of each
/// client phase, which start on a stale cache. Over the whole time-bounded
/// phase, a slower box completes fewer queries, so fewer of them are cache
/// hits, and query_qps fell more than the box slowed: five seeds read a
/// scaled query_qps spread of 0.17 that way, and 0.02 over 6000 queries.
constexpr size_t kChurnRateQueries = 6000;
/// One in-window result in this many is kept for the oracle check.
constexpr uint64_t kSampleEvery = 16;
/// Set-up is repeated at least this many times, and until this much
/// time has gone into it; setup_s is the median. surface's 0.2 s set-up
/// read a spread of 0.29-0.35 over ten seeds as the median of three.
constexpr size_t kMinSetupRepeats = 3;
constexpr double kMinSetupSeconds = 1.5;
/// Program spans: 1-in-N queries sampled by obs::Tracer (traced run).
constexpr uint64_t kTraceSampleEvery = 16;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + (salt + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

using stats::Median;

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

double PeakRssMb() {
  struct rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Run environment. ---

/// Keeps the fixed loops from being folded away.
volatile uint64_t g_spin_sink = 0;

/// A fixed integer loop.
void Spin(uint64_t iters) {
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (uint64_t i = 0; i < iters; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
  }
  g_spin_sink = x;
}

constexpr uint64_t kSpinIters = 20000000;

/// Wall milliseconds for `threads` threads each running the fixed loop.
double SpinMs(size_t threads) {
  auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(Spin, kSpinIters);
  for (auto& th : pool) th.join();
  return SecondsSince(t0) * 1e3;
}

/// A fixed allocation-heavy loop (strings into an ordered map). Work like
/// surfacing slows with the neighbours' memory traffic far more than the
/// register-only spin does: back to back, this loop read 75-123 ms while
/// the spin read 44-53 ms.
double AllocLoopMs() {
  auto t0 = Clock::now();
  std::map<std::string, uint64_t> m;
  std::vector<std::string> keys;
  uint64_t x = 0x2545F4914F6CDD1DULL;
  for (int i = 0; i < 60000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    keys.push_back("key-" + std::to_string(x % 100000) +
                   std::string(40, static_cast<char>('a' + x % 26)));
    m[keys.back()] += static_cast<uint64_t>(i);
  }
  uint64_t sum = 0;
  for (const auto& k : keys) sum += m[k];
  g_spin_sink = sum;
  return SecondsSince(t0) * 1e3;
}

/// Times AllocLoopMs in a fresh process (this binary run with --probe),
/// so a probe times the box and not this process's heap: in-process, the
/// loop read 150 ms after remote_churn's ingest against 120 ms after
/// local_serve's. The child inherits this thread's CPU affinity. Returns
/// -1 when the child cannot run.
double ProbeMsInFreshProcess() {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  char arg0[] = "e2e_bench";
  char arg1[] = "--probe";
  char* argv[] = {arg0, arg1, nullptr};
  pid_t pid = 0;
  const int spawned = posix_spawn(&pid, "/proc/self/exe", &actions, nullptr,
                                  argv, environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buf[64];
  for (ssize_t n; (n = read(fds[0], buf, sizeof(buf))) > 0;) {
    out.append(buf, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (spawned != 0) return -1.0;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  return std::atof(out.c_str());
}

/// Box-speed probes inside every run: AllocLoopMs, in a fresh process,
/// before each set-up, each SurfacingDriver run and each client slice,
/// and once after the window. The shared VM's speed drifts over minutes,
/// so every timed end-to-end metric is reported at a reference box speed
/// (see the file comment for how each is scaled). The raw figures are
/// printed beside them. The loop is benchmark code that calls nothing in
/// src/, so a program change moves the raw figure and not the scale.
class Pacer {
 public:
  static constexpr double kReferenceProbeMs = 80.0;

  /// Returns the probe's time, or -1 when it failed.
  double Probe() {
    const double ms = ProbeMsInFreshProcess();
    if (ms > 0.0) {
      probe_ms_.push_back(ms);
    } else {
      ++failed_;
    }
    return ms;
  }
  /// Above 1 when this run's box was slower than the reference.
  double Slowdown() const { return Median(probe_ms_) / kReferenceProbeMs; }
  const std::vector<double>& probe_ms() const { return probe_ms_; }
  size_t failed() const { return failed_; }

 private:
  std::vector<double> probe_ms_;
  size_t failed_ = 0;
};

Pacer g_pacer;

struct RunEnv {
  double spin_ms[3] = {0, 0, 0};  ///< 1, 2, 4 threads
  double effective_parallelism = 0.0;
};

void MeasureParallelism(RunEnv* env) {
  const size_t threads[3] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) env->spin_ms[i] = SpinMs(threads[i]);
  env->effective_parallelism = 4.0 * env->spin_ms[0] / env->spin_ms[2];
}

// --- Reporting. ---

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  double raw = 0.0;  ///< before the box-speed scaling (end-to-end rows)
  bool scaled = false;  ///< already at the reference box speed
};

/// What one run produced. A failed check leaves `problems` non-empty and
/// the run exits non-zero without printing a result.
struct Report {
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> problems;
  /// Headline rate for obs.trace_overhead_frac (pages/s or qps).
  std::string headline;

  void E2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit, value});
  }
  /// A timed row already at the reference box speed, with its raw figure.
  void E2e(const std::string& name, double value, const std::string& unit,
           double raw) {
    end_to_end.push_back({name, value, unit, raw, true});
  }
  void Layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit, value});
  }
  void Fail(const std::string& what) { problems.push_back(what); }
};

// --- Surfacing. ---

/// One crawled surfacing corpus: the web, the crawl's index of surface
/// pages (the surfacer's read-only characteristic-term seed index) and
/// the discovered forms (the work-list).
struct SurfacingInput {
  synthweb::WebCorpus corpus;
  std::unique_ptr<index::InvertedIndex> crawl_index;
  std::vector<crawler::DiscoveredForm> forms;
};

/// Builds a web of the given shape, deterministic in `seed`: deep sites,
/// the entity universe in a seeded popularity order, surface sites
/// carrying the popular head, and the directory hub (the crawl seed).
synthweb::WebCorpus BuildWeb(const WebShape& shape, uint64_t seed) {
  Rng rng(seed);
  synthweb::WebCorpus corpus;
  corpus.web = std::make_shared<net::SimulatedWeb>();
  const auto& domains = synthweb::AllDomains();
  for (size_t i = 0; i < shape.sites_per_domain * domains.size(); ++i) {
    const synthweb::Domain domain = domains[i % domains.size()];
    const size_t rank = i / domains.size();
    synthweb::SiteGenOptions gen;
    gen.num_rows = shape.min_rows + static_cast<size_t>(
                                        static_cast<double>(shape.max_rows -
                                                            shape.min_rows) /
                                        static_cast<double>(rank + 1));
    gen.force_get = rank + 1 < shape.sites_per_domain ||
                    i % domains.size() >= shape.post_domains;
    gen.post_probability = 1.0;
    const std::string host = strings::Format(
        "%s-%03zu.example.com", synthweb::DomainToString(domain), i);
    Rng site_rng = rng.Fork();
    auto site = std::make_shared<synthweb::DeepWebSite>(
        synthweb::GenerateSite(domain, host, &site_rng, gen));
    DS_CHECK_OK(corpus.web->Register(site));
    corpus.deep_sites.push_back(std::move(site));
  }
  for (size_t s = 0; s < corpus.deep_sites.size(); ++s) {
    const auto& spec = corpus.deep_sites[s]->spec();
    for (size_t t = 0; t < spec.tables.size(); ++t) {
      for (db::RowId r = 0; r < spec.tables[t].second->num_rows(); ++r) {
        corpus.entities.push_back(synthweb::EntityRef{s, t, r, false});
      }
    }
  }
  rng.Shuffle(&corpus.entities);

  auto hub = std::make_shared<synthweb::SurfaceSite>("directory.example.org");
  for (const auto& site : corpus.deep_sites) {
    hub->AddRootLink(site->FormPageUrl(), site->spec().title);
  }
  std::vector<std::shared_ptr<synthweb::SurfaceSite>> surface;
  for (size_t i = 0; i < shape.surface_sites; ++i) {
    surface.push_back(std::make_shared<synthweb::SurfaceSite>(
        strings::Format("web-%02zu.example.org", i)));
  }
  const size_t covered =
      shape.surface_sites == 0 ? 0 : corpus.entities.size() / 12;
  for (size_t rank = 0; rank < covered; ++rank) {
    synthweb::EntityRef& e = corpus.entities[rank];
    e.has_surface_page = true;
    surface[rank % surface.size()]->AddPage(
        strings::Format("/article%zu.html", rank),
        strings::Format("Article %zu", rank),
        "<p>" + html::EscapeHtml(corpus.EntityText(e)) + "</p>\n<p>" +
            html::EscapeHtml(synthweb::RandomProse(&rng, 25)) + "</p>\n");
  }
  for (auto& site : surface) {
    hub->AddRootLink("http://" + site->host() + "/", site->host());
    DS_CHECK_OK(corpus.web->Register(site));
    corpus.surface_sites.push_back(std::move(site));
  }
  DS_CHECK_OK(corpus.web->Register(hub));
  corpus.surface_sites.push_back(hub);
  corpus.directory_url = "http://directory.example.org/";
  return corpus;
}

std::unique_ptr<SurfacingInput> BuildSurfacingInput(const WebShape& shape,
                                                    uint64_t seed) {
  auto in = std::make_unique<SurfacingInput>();
  in->corpus = BuildWeb(shape, seed);
  in->crawl_index = std::make_unique<index::InvertedIndex>();
  crawler::Crawler crawl(in->corpus.web.get(), in->crawl_index.get(), {});
  DS_CHECK_OK(crawl.Crawl({in->corpus.directory_url}));
  in->forms = crawl.forms();
  return in;
}

/// The surfacing corpus's sites behind timing decorators, on a web of
/// their own (the traced run's surfacing fetches through this).
struct TracedWeb {
  net::SimulatedWeb web;
  std::vector<std::shared_ptr<TimedWebServer>> servers;

  int64_t handle_ns() const {
    int64_t sum = 0;
    for (const auto& s : servers) sum += s->handle_ns();
    return sum;
  }
};

std::unique_ptr<TracedWeb> MakeTracedWeb(const synthweb::WebCorpus& corpus,
                                         SpanLog* spans) {
  auto traced = std::make_unique<TracedWeb>();
  auto add = [&](std::shared_ptr<net::WebServer> site) {
    auto timed = std::make_shared<TimedWebServer>(std::move(site), spans);
    traced->servers.push_back(timed);
    DS_CHECK_OK(traced->web.Register(timed));
  };
  for (const auto& site : corpus.deep_sites) add(site);
  for (const auto& site : corpus.surface_sites) add(site);
  return traced;
}

/// The ingest side of every surfacing run: the repo's recorder (the
/// oracle's replay log, in apply order) plus batch accounting. Timing
/// and spans only when `spans` is set (traced run).
class IngestRecorder : public traffic::RecordingWritableIndex {
 public:
  IngestRecorder(index::WritableIndex* inner, SpanLog* spans)
      : traffic::RecordingWritableIndex(inner), spans_(spans) {}

  Result<size_t> InsertBatch(const std::vector<index::Document>& docs,
                             std::vector<bool>* newly_added) override {
    const int64_t t0 = spans_ != nullptr ? NowNs() : 0;
    auto added = traffic::RecordingWritableIndex::InsertBatch(docs, newly_added);
    offered_.fetch_add(docs.size());
    if (added.ok()) {
      committed_.fetch_add(1);
      newly_.fetch_add(*added);
    } else {
      failed_.fetch_add(1);
    }
    if (spans_ != nullptr) {
      const int64_t t1 = NowNs();
      ingest_ns_.fetch_add(t1 - t0);
      spans_->Add("index.insert_batch", spans_->NextId(),
                  spans_->writer_span(), 0, t0, t1);
    }
    return added;
  }

  uint64_t batches() const { return committed() + failed(); }
  uint64_t committed() const { return committed_.load(); }
  uint64_t failed() const { return failed_.load(); }
  uint64_t offered() const { return offered_.load(); }
  uint64_t newly() const { return newly_.load(); }
  int64_t ingest_ns() const { return ingest_ns_.load(); }

 private:
  SpanLog* spans_;
  std::atomic<uint64_t> committed_{0}, failed_{0}, offered_{0}, newly_{0};
  std::atomic<int64_t> ingest_ns_{0};
};

/// One pass of the SurfacingDriver over a whole work-list, as kChunks
/// runs that share one probe scheduler (so the cross-form probe cache
/// spans the pass, as it would in a single run).
struct SurfacingRun {
  uint64_t forms_total = 0;
  uint64_t forms_analyzed = 0;  ///< completed GET forms
  uint64_t forms_failed = 0;
  uint64_t pages = 0;           ///< newly indexed
  uint64_t site_fetches = 0;    ///< requests that reached simulated sites
  double wall_s = 0.0;
  /// wall_s with each SurfacingDriver run's time scaled to the reference
  /// box speed by the probe taken just before it.
  double scaled_s = 0.0;
  std::vector<double> chunk_rates;  ///< pages/s of each SurfacingDriver run
  net::ProbeSchedulerStats scheduler;
  std::vector<std::string> url_set;
  std::set<std::string> analysed_hosts;
};

SurfacingRun RunSurfacing(const SurfacingInput& in, net::SimulatedWeb* web,
                          index::WritableIndex* out, uint64_t seed,
                          SpanLog* spans, Report* report,
                          const std::function<void()>& after_each_run = {}) {
  SurfacingRun run;
  net::ProbeScheduler scheduler(web);
  for (size_t c = 0; c < kChunks; ++c) {
    std::vector<crawler::DiscoveredForm> forms;
    for (size_t i = c; i < in.forms.size(); i += kChunks) {
      forms.push_back(in.forms[i]);
    }
    crawler::SurfacingDriverOptions o;
    o.num_threads = 1;
    o.seed = Mix(seed, c);
    o.seed_index = in.crawl_index.get();
    crawler::SurfacingDriver driver(&scheduler, out, o);
    const double probe_ms = g_pacer.Probe();
    const uint64_t before = web->total_requests();
    const uint64_t span = spans != nullptr ? spans->NextId() : 0;
    if (spans != nullptr) spans->SetWriterSpan(span);
    const int64_t t0 = NowNs();
    auto stats = driver.Run(forms);
    const int64_t t1 = NowNs();
    if (spans != nullptr) {
      spans->Add("crawler.surfacing_run", span, 0, 0, t0, t1);
      spans->SetWriterSpan(0);
    }
    run.site_fetches += web->total_requests() - before;
    if (!stats.ok()) {
      report->Fail("SurfacingDriver::Run failed: " + stats.status().ToString());
      return run;
    }
    const double wall = static_cast<double>(t1 - t0) / 1e9;
    run.wall_s += wall;
    run.scaled_s += probe_ms > 0.0 ? wall * Pacer::kReferenceProbeMs / probe_ms
                                   : wall;
    run.chunk_rates.push_back(
        Ratio(static_cast<double>(stats->pages_indexed), wall));
    run.forms_total += stats->forms_total;
    run.forms_analyzed += stats->forms_analyzed;
    run.forms_failed += stats->forms_failed;
    run.pages += stats->pages_indexed;
    for (auto& url : driver.SurfacedUrlSet()) run.url_set.push_back(url);
    for (const auto& outcome : driver.outcomes()) {
      if (outcome.status.ok() && !outcome.result.skipped_post) {
        run.analysed_hosts.insert(outcome.page_url.host());
      }
    }
    if (after_each_run) after_each_run();
  }
  std::sort(run.url_set.begin(), run.url_set.end());
  run.url_set.erase(std::unique(run.url_set.begin(), run.url_set.end()),
                    run.url_set.end());
  run.scheduler = scheduler.stats();
  report->attempted += run.forms_analyzed + run.forms_failed;
  report->failed += run.forms_failed;
  return run;
}

/// Distinct hidden records on the indexed surfaced pages ÷ rows behind
/// the analysed GET forms. Pages are refetched after the window (outside
/// every counter). A record is identified by (site, table, row id): the
/// table from the page URL's database selector (table 0 when unbound),
/// the row from the record's detail link. core::ReducePage's record
/// hashes are not used: on a one-result page its extractor takes that
/// row's cells for the repeated region, which read 1.45 "coverage" on
/// seed 1's remote_churn corpus.
double RecordCoverage(const SurfacingInput& in, const SurfacingRun& run,
                      const std::vector<index::Document>& indexed) {
  std::map<std::string, const synthweb::SiteSpec*> sites;
  uint64_t rows = 0;
  for (const auto& site : in.corpus.deep_sites) {
    if (run.analysed_hosts.count(site->host()) == 0) continue;
    sites[site->host()] = &site->spec();
    rows += site->spec().TotalRows();
  }
  static const std::string kDetail = "/item?id=";
  std::set<std::tuple<std::string, size_t, uint64_t>> records;
  for (const auto& doc : indexed) {
    auto site = sites.find(doc.source_host);
    if (site == sites.end()) continue;
    auto url = net::Url::Parse(doc.url);
    auto resp = in.corpus.web->Get(doc.url);
    if (!url.ok() || !resp.ok() || resp->status_code != 200) continue;
    const synthweb::SiteSpec& spec = *site->second;
    size_t table = 0;
    for (const auto& [name, value] : url->query()) {
      const synthweb::FormInputSpec* input = spec.FindInput(name);
      if (input == nullptr || input->role != synthweb::InputRole::kDbSelector) {
        continue;
      }
      for (size_t t = 0; t < spec.tables.size(); ++t) {
        if (spec.tables[t].first == value) table = t;
      }
    }
    for (const auto& link : html::ExtractLinks(*html::Parse(resp->body))) {
      if (link.href.compare(0, kDetail.size(), kDetail) != 0) continue;
      records.emplace(doc.source_host, table,
                      std::strtoull(link.href.c_str() + kDetail.size(),
                                    nullptr, 10));
    }
  }
  return Ratio(static_cast<double>(records.size()), static_cast<double>(rows));
}

/// Stage profile: drives every form through the public
/// pipeline stages on a fresh scheduler, timing each stage and the HTML
/// work on its pages. The traced run fails unless the profiled URL set
/// equals SurfacingDriver::SurfacedUrlSet(), so these rows describe the
/// same work.
void StageProfile(const SurfacingInput& in, const SurfacingRun& run,
                  SpanLog* spans, Report* report) {
  net::ProbeScheduler scheduler(in.corpus.web.get());
  core::SurfacerOptions options;
  double stage_ms[4] = {0, 0, 0, 0};
  double parse_us = 0.0;
  uint64_t pages = 0, forms = 0, zero_url_forms = 0, probes = 0, urls = 0;
  std::vector<std::string> url_set;
  auto timed = [&](const char* name, double* acc, auto&& fn) {
    const int64_t t0 = NowNs();
    auto result = fn();
    const int64_t t1 = NowNs();
    *acc += static_cast<double>(t1 - t0) / 1e6;
    spans->Add(name, spans->NextId(), 0, 0, t0, t1);
    return result;
  };
  for (const auto& discovered : in.forms) {
    std::string scripts;
    if (auto page = scheduler.Fetch(discovered.page_url); page.ok()) {
      scripts = html::ExtractScriptText(*html::Parse(page->body));
    }
    auto ctx = timed("core.analyze_inputs", &stage_ms[0], [&] {
      return core::AnalyzeInputs(&scheduler, in.crawl_index.get(), options,
                                 discovered.page_url, discovered.form,
                                 scripts);
    });
    if (!ctx.ok() || ctx->result.skipped_post) continue;
    Status s = timed("core.mine_candidates", &stage_ms[1],
                     [&] { return core::MineCandidates(&*ctx); });
    if (s.ok()) {
      s = timed("core.search_templates", &stage_ms[2],
                [&] { return core::SearchTemplates(&*ctx); });
    }
    if (s.ok()) {
      s = timed("core.emit_urls", &stage_ms[3],
                [&] { return core::EmitUrls(&*ctx); });
    }
    if (!s.ok()) continue;
    ++forms;
    probes += ctx->result.probes_used;
    urls += ctx->result.urls.size();
    if (ctx->result.urls.empty()) ++zero_url_forms;
    for (const auto& surfaced : ctx->result.urls) {
      url_set.push_back(surfaced.url.ToCanonicalString());
      auto resp = scheduler.Fetch(surfaced.url);
      if (!resp.ok() || resp->status_code != 200) continue;
      const int64_t t0 = NowNs();
      auto dom = html::Parse(resp->body);
      std::string text = html::ExtractText(*dom);
      const int64_t t1 = NowNs();
      parse_us += static_cast<double>(t1 - t0) / 1e3;
      ++pages;
    }
  }
  std::sort(url_set.begin(), url_set.end());
  url_set.erase(std::unique(url_set.begin(), url_set.end()), url_set.end());
  if (url_set != run.url_set) {
    report->Fail("stage profile surfaced " + std::to_string(url_set.size()) +
                 " URLs, SurfacingDriver " +
                 std::to_string(run.url_set.size()));
  }
  const double f = static_cast<double>(forms);
  report->Layer("core.analyze_inputs_ms", Ratio(stage_ms[0], f), "ms/form");
  report->Layer("core.mine_candidates_ms", Ratio(stage_ms[1], f), "ms/form");
  report->Layer("core.search_templates_ms", Ratio(stage_ms[2], f), "ms/form");
  report->Layer("core.emit_urls_ms", Ratio(stage_ms[3], f), "ms/form");
  report->Layer("core.probes_per_form", Ratio(static_cast<double>(probes), f),
                "probes/form");
  report->Layer("core.urls_per_probe",
                Ratio(static_cast<double>(urls), static_cast<double>(probes)),
                "urls/probe");
  report->Layer("core.zero_url_forms", static_cast<double>(zero_url_forms),
                "count");
  report->Layer("html.parse_us_per_page",
                Ratio(parse_us, static_cast<double>(pages)), "us/page");
}

/// Pages newly indexed per second of SurfacingDriver time, over one or
/// more passes.
struct SurfacingRate {
  double pages = 0.0;
  double wall_s = 0.0;
  double scaled_s = 0.0;

  void Add(const SurfacingRun& run) {
    pages += static_cast<double>(run.pages);
    wall_s += run.wall_s;
    scaled_s += run.scaled_s;
  }
};

/// The surfacing half's end-to-end rows. surface_pages_per_s is already at
/// the reference speed: each SurfacingDriver run's time is scaled by the
/// probe taken just before it. Over five local_serve seeds run twice, the
/// median of the runs' rates read spreads of 0.18-0.19, and one seed
/// differed by up to 0.19 between its two runs; this rate read 0.06-0.07,
/// and at most 0.05.
void SurfacingEndToEnd(const SurfacingInput& in, const SurfacingRun& run,
                       const SurfacingRate& rate, IngestRecorder* recorder,
                       Report* report) {
  const double pages = static_cast<double>(run.pages);
  report->E2e("surface_pages_per_s", Ratio(rate.pages, rate.scaled_s), "1/s",
              Ratio(rate.pages, rate.wall_s));
  report->E2e("site_fetches_per_page",
              Ratio(static_cast<double>(run.site_fetches), pages), "req/page");
  report->E2e("record_coverage",
              RecordCoverage(in, run, recorder->recorded()), "ratio");
  std::printf("surfacing: %llu forms (%llu analysed), %llu pages, %llu site "
              "fetches per pass; %.0f pages in %.2f s of SurfacingDriver runs\n",
              static_cast<unsigned long long>(run.forms_total),
              static_cast<unsigned long long>(run.forms_analyzed),
              static_cast<unsigned long long>(run.pages),
              static_cast<unsigned long long>(run.site_fetches), rate.pages,
              rate.wall_s);
  std::printf("surfacing runs (pages/s):");
  for (double v : run.chunk_rates) std::printf(" %.1f", v);
  std::printf("\n");
}

// --- Serving. ---

/// One in-window result kept for the oracle: valid iff it equals the
/// oracle over some corpus prefix in [lo, hi] (the corpus sizes seen
/// just before and just after the query).
struct Sample {
  std::string query;
  std::vector<index::SearchHit> hits;
  uint64_t lo = 0;
  uint64_t hi = 0;
  bool matched = false;
};

struct ServeWindow {
  std::vector<size_t> slice;   ///< slice each completed query fell in
  std::vector<double> ms;      ///< latency
  std::vector<char> miss;      ///< answered by the index, not the cache
  std::vector<double> slice_s;  ///< length of each slice
  /// Per slice, the completed queries its rate counts and their seconds.
  std::vector<double> rate_queries, rate_s;
  uint64_t queries = 0;
  uint64_t failed = 0;
  double wall_s = 0.0;
  std::vector<Sample> samples;
};

/// The closed-loop client: one thread, the next query issued when the
/// previous one returned, no arrival schedule and no sleeping. Runs
/// `slices` slices of seconds/slices each, appended to `w`, with a box-speed
/// probe before each. With `rate_queries` > 0 a slice's rate is taken over
/// its first rate_queries completed queries, and the slice lasts until
/// they are done (unless a query failed); otherwise over the whole slice.
void RunClient(serve::Engine* engine, const index::SearchIndex* corpus,
               const std::vector<std::string>& stream, size_t* cursor,
               double seconds, size_t slices, size_t rate_queries,
               SpanLog* spans, ServeWindow* w) {
  const double slice_s = seconds / static_cast<double>(slices);
  for (size_t k = 0; k < slices; ++k) {
    g_pacer.Probe();
    const size_t slice = w->slice_s.size();
    const int64_t start = NowNs();
    const int64_t end = start + static_cast<int64_t>(slice_s * 1e9);
    size_t completed = 0;
    int64_t rate_end = 0;
    for (int64_t now = start;
         now < end || (completed < rate_queries && w->failed == 0);
         now = NowNs()) {
      const std::string& q = stream[(*cursor)++ % stream.size()];
      const bool sampled = w->queries % kSampleEvery == 0;
      const uint64_t lo = sampled ? corpus->num_docs() : 0;
      const uint64_t qid = w->queries + 1;
      uint64_t span = 0;
      if (spans != nullptr) {
        span = spans->NextId();
        spans->SetQuery(qid, span);
      }
      const int64_t t0 = NowNs();
      serve::ServeResult res = engine->Search(q, kTopK);
      const int64_t t1 = NowNs();
      if (spans != nullptr) {
        spans->Add("client.query", span, 0, qid, t0, t1);
        spans->ClearQuery();
      }
      ++w->queries;
      if (!res.status.ok()) {
        ++w->failed;
        continue;
      }
      if (++completed == rate_queries) rate_end = t1;
      w->slice.push_back(slice);
      w->ms.push_back(static_cast<double>(t1 - t0) / 1e6);
      w->miss.push_back(res.from_cache ? 0 : 1);
      if (sampled) {
        Sample s;
        s.query = q;
        s.hits = std::move(res.hits);
        s.lo = lo;
        s.hi = corpus->num_docs();
        w->samples.push_back(std::move(s));
      }
    }
    const int64_t stop = NowNs();
    w->slice_s.push_back(static_cast<double>(stop - start) / 1e9);
    w->wall_s += w->slice_s.back();
    const bool prefix = rate_queries > 0 && completed >= rate_queries;
    w->rate_queries.push_back(
        static_cast<double>(prefix ? rate_queries : completed));
    w->rate_s.push_back(
        static_cast<double>((prefix ? rate_end : stop) - start) / 1e9);
  }
}

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

/// Output checks against an exhaustive oracle (no pruning, no
/// compression): the base documents, then the recorded ingest replayed
/// one document at a time; every sample must match some prefix inside
/// its window, and once settled every pool query served by the engine
/// must match the full oracle exactly (doc ids and score bits).
void CheckAgainstOracle(serve::Engine* engine,
                        const std::vector<index::Document>& base_docs,
                        const std::vector<index::Document>& replay,
                        std::vector<Sample> samples,
                        const std::vector<std::string>& pool,
                        Report* report) {
  Note("checking against the oracle");
  index::IndexOptions oracle_opts;
  oracle_opts.enable_pruning = false;
  index::InvertedIndex oracle(oracle_opts);
  if (!base_docs.empty() && !oracle.InsertBatch(base_docs).ok()) {
    report->Fail("oracle base ingest failed");
    return;
  }
  Note("oracle built");
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.lo < b.lo; });
  const size_t nbase = oracle.num_docs();
  size_t next = 0;
  std::vector<Sample*> pending;
  uint64_t mismatches = 0;
  for (size_t p = nbase; p <= nbase + replay.size(); ++p) {
    if (p > nbase) {
      if (!oracle.InsertBatch({replay[p - nbase - 1]}).ok() ||
          oracle.num_docs() != p) {
        report->Fail("oracle replay diverged from the recorded apply order");
        return;
      }
    }
    while (next < samples.size() && samples[next].lo <= p) {
      pending.push_back(&samples[next++]);
    }
    if (pending.empty()) continue;
    std::unordered_map<std::string, std::vector<index::SearchHit>> memo;
    for (Sample* s : pending) {
      if (p < s->lo || p > s->hi) continue;
      auto it = memo.find(s->query);
      if (it == memo.end()) {
        it = memo.emplace(s->query, oracle.Search(s->query, kTopK)).first;
      }
      if (SameHits(s->hits, it->second)) s->matched = true;
    }
    pending.erase(std::remove_if(pending.begin(), pending.end(),
                                 [&](Sample* s) {
                                   if (s->matched) return true;
                                   if (s->hi <= p) {
                                     ++mismatches;
                                     return true;
                                   }
                                   return false;
                                 }),
                  pending.end());
  }
  mismatches += pending.size() + (samples.size() - next);
  if (mismatches != 0) {
    report->Fail(std::to_string(mismatches) + " of " +
                 std::to_string(samples.size()) +
                 " in-window results differ from the oracle");
  }
  Note("in-window samples checked");
  uint64_t settled_bad = 0;
  for (const auto& q : pool) {
    if (!SameHits(engine->Search(q, kTopK).hits, oracle.Search(q, kTopK))) {
      ++settled_bad;
    }
  }
  if (settled_bad != 0) {
    report->Fail(std::to_string(settled_bad) + " of " +
                 std::to_string(pool.size()) +
                 " settled pool queries differ from the oracle");
  }
}

/// Counter snapshot of the serving stack, for window deltas.
struct ServeSnap {
  serve::EngineStats engine;
  index::SearchStats search;
  remote::CoordinatorStats coord;
  int64_t index_ns = 0;
  uint64_t traces = 0;  ///< program traces committed so far
};

ServeSnap Snap(const serve::Engine& engine, const index::SearchIndex& index,
               const remote::Coordinator* coord, const TimedReadIndex* timed,
               const obs::Tracer* tracer) {
  ServeSnap s;
  s.engine = engine.stats();
  s.search = index.search_stats();
  if (coord != nullptr) s.coord = coord->stats();
  if (timed != nullptr) s.index_ns = timed->search_ns();
  if (tracer != nullptr) s.traces = tracer->traces_committed();
  return s;
}

/// The program traces committed after snapshot `a`, so the span rows
/// cover the same window as the counter deltas (the warm-up's sampled
/// traces are left out). The tracer evicts oldest first.
std::vector<obs::Trace> WindowTraces(const obs::Tracer& tracer,
                                     const ServeSnap& a) {
  std::vector<obs::Trace> traces = tracer.Traces();
  const uint64_t in_window = tracer.traces_committed() - a.traces;
  if (in_window < traces.size()) {
    traces.erase(traces.begin(),
                 traces.end() - static_cast<std::ptrdiff_t>(in_window));
  }
  return traces;
}

/// The serving half's end-to-end rows. The shared box stalls for about
/// a second at a time (a fixed spin loop read 47 ms, then 95 ms for a
/// burst), so each figure is the median over the window's slices: the
/// slice's rate (see RunClient), the median latency of its index misses,
/// and the p99 of all its queries.
void ServingEndToEnd(const ServeWindow& w, Report* report) {
  const size_t n = w.slice_s.size();
  std::vector<std::vector<double>> all(n), misses(n);
  for (size_t i = 0; i < w.ms.size(); ++i) {
    all[w.slice[i]].push_back(w.ms[i]);
    if (w.miss[i]) misses[w.slice[i]].push_back(w.ms[i]);
  }
  std::vector<double> qps, miss_p50, p99;
  size_t fewest = SIZE_MAX, fewest_misses = SIZE_MAX, total_misses = 0;
  for (size_t k = 0; k < n; ++k) {
    qps.push_back(Ratio(w.rate_queries[k], w.rate_s[k]));
    miss_p50.push_back(Median(misses[k]));
    p99.push_back(stats::Percentile(all[k], 99));
    fewest = std::min(fewest, all[k].size());
    fewest_misses = std::min(fewest_misses, misses[k].size());
    total_misses += misses[k].size();
  }
  std::printf("serving slices (qps):");
  for (double v : qps) std::printf(" %.0f", v);
  std::printf("\n");
  report->E2e("query_qps", Median(qps), "1/s");
  report->E2e("miss_p50_ms", Median(miss_p50), "ms");
  report->E2e("query_p99_ms", Median(p99), "ms");
  report->attempted += w.queries;
  report->failed += w.failed;
  std::printf("serving: %llu queries (%zu index misses) in %.2f s; %zu "
              "slices of >= %zu queries and >= %zu misses each; %zu oracle "
              "samples\n",
              static_cast<unsigned long long>(w.queries), total_misses,
              w.wall_s, n, fewest, fewest_misses, w.samples.size());
}

/// Per-layer serving rows from window deltas and the probes.
void ServingLayers(const ServeWindow& w, const ServeSnap& a,
                   const ServeSnap& b, const index::SearchIndex& index,
                   const TimedTransport* transport,
                   const std::vector<obs::Trace>& traces,
                   const IngestRecorder* churn, Report* report) {
  const double committed_batches =
      churn != nullptr ? static_cast<double>(churn->committed()) : 0.0;
  const double queries = static_cast<double>(b.engine.queries - a.engine.queries);
  const double misses =
      static_cast<double>(b.engine.cache_misses - a.engine.cache_misses);
  const double hits =
      static_cast<double>(b.engine.cache_hits - a.engine.cache_hits);
  const double index_us = static_cast<double>(b.index_ns - a.index_ns) / 1e3;
  double client_us = 0.0;
  for (double ms : w.ms) client_us += ms * 1e3;
  const double decoded =
      static_cast<double>(b.search.blocks_decoded - a.search.blocks_decoded);
  const double skipped =
      static_cast<double>(b.search.blocks_skipped - a.search.blocks_skipped);
  const double dcache = static_cast<double>(b.search.decode_cache_hits -
                                            a.search.decode_cache_hits);
  report->Layer("index.search_us_per_miss", Ratio(index_us, misses), "us/miss");
  report->Layer("index.blocks_decoded_per_miss", Ratio(decoded, misses),
                "blocks/miss");
  report->Layer("index.blocks_skipped_per_miss", Ratio(skipped, misses),
                "blocks/miss");
  report->Layer("index.decode_cache_hit_frac", Ratio(dcache, dcache + decoded),
                "ratio");
  report->Layer("index.bytes_per_posting", index.MemoryUsage().bytes_per_posting(),
                "B/posting");
  report->Layer("serve.cache_hit_frac", Ratio(hits, queries), "ratio");
  report->Layer(
      "serve.invalidations_per_batch",
      Ratio(static_cast<double>(b.engine.invalidations - a.engine.invalidations),
            committed_batches),
      "inval/batch");
  report->Layer("serve.self_us_per_query",
                Ratio(client_us - index_us, queries), "us/query");

  // Remote rows: zero on the in-process workloads, where no RPC exists.
  TimedTransport::KindTotals stats_rpc, search_rpc, ingest_rpc;
  if (transport != nullptr) {
    stats_rpc = transport->totals(TimedTransport::kStats);
    search_rpc = transport->totals(TimedTransport::kSearch);
    ingest_rpc = transport->totals(TimedTransport::kIngest);
  }
  const double rpcs = static_cast<double>(stats_rpc.calls + search_rpc.calls);
  const double wire = static_cast<double>(
      stats_rpc.request_bytes + stats_rpc.response_bytes +
      search_rpc.request_bytes + search_rpc.response_bytes);
  const double hedges = static_cast<double>(b.coord.hedges - a.coord.hedges);
  const double hedge_wins =
      static_cast<double>(b.coord.hedge_wins - a.coord.hedge_wins);
  report->Layer("remote.rpcs_per_miss", Ratio(rpcs, misses), "rpc/miss");
  report->Layer("remote.stats_rpc_us_p50", Median(stats_rpc.latency_us), "us");
  report->Layer("remote.search_rpc_us_p50", Median(search_rpc.latency_us),
                "us");
  report->Layer("remote.wire_bytes_per_miss", Ratio(wire, misses), "B/miss");
  report->Layer("remote.hedges_per_miss", Ratio(hedges, misses), "hedge/miss");
  report->Layer("remote.hedge_win_frac", Ratio(hedge_wins, hedges), "ratio");

  std::map<std::string, std::vector<double>> span_us;
  for (const obs::Trace& t : traces) {
    for (const obs::Span& s : t.spans) {
      span_us[s.name].push_back(s.duration_ms * 1e3);
    }
  }
  report->Layer("remote.stats_round_us_p50", Median(span_us["coord.stats_round"]),
                "us");
  report->Layer("remote.search_round_us_p50",
                Median(span_us["coord.search_round"]), "us");
  report->Layer("remote.queue_wait_us_p50", Median(span_us["shard.queue_wait"]),
                "us");
  report->Layer("remote.score_us_p50", Median(span_us["shard.score"]), "us");

  std::vector<double> ingest_ms;
  for (double us : ingest_rpc.latency_us) ingest_ms.push_back(us / 1e3);
  report->Layer("remote.ingest_rpc_ms_p50", Median(ingest_ms), "ms");
  report->Layer("remote.ingest_bytes_per_doc",
                Ratio(static_cast<double>(ingest_rpc.request_bytes),
                      churn != nullptr ? static_cast<double>(churn->offered())
                                       : 0.0),
                "B/doc");
}

/// Per-layer surfacing rows from one (traced) surfacing run.
void SurfacingLayers(const SurfacingRun& run, const TracedWeb& web,
                     const IngestRecorder& recorder, int64_t handle_ns_before,
                     Report* report) {
  const double forms = static_cast<double>(run.forms_analyzed);
  report->Layer("synthweb.handle_share",
                Ratio(static_cast<double>(web.handle_ns() - handle_ns_before) / 1e9,
                      run.wall_s),
                "ratio");
  report->Layer("net.site_fetches_per_form",
                Ratio(static_cast<double>(run.site_fetches), forms),
                "req/form");
  report->Layer("net.probe_cache_hit_frac", run.scheduler.HitRate(), "ratio");
  report->Layer("crawler.new_page_frac",
                Ratio(static_cast<double>(recorder.newly()),
                      static_cast<double>(recorder.offered())),
                "ratio");
  report->Layer("index.ingest_us_per_doc",
                Ratio(static_cast<double>(recorder.ingest_ns()) / 1e3,
                      static_cast<double>(recorder.offered())),
                "us/doc");
}

/// Every ratio-valued number must lie in [0, 1]: the guard against
/// counters leaking across instances (a shared registry reports
/// cumulative, not per-instance, counts).
void CheckRatios(Report* report) {
  for (const auto* list : {&report->end_to_end, &report->per_layer}) {
    for (const Metric& m : *list) {
      if (m.unit != "ratio") continue;
      if (!(m.value >= 0.0 && m.value <= 1.0)) {
        report->Fail("ratio " + m.name + " = " + std::to_string(m.value) +
                     " outside [0, 1]");
      }
    }
  }
}

// --- Workloads. ---

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string spans_path;
};

index::ShardedIndexOptions ServingIndexOptions() {
  index::ShardedIndexOptions o;
  o.num_shards = 4;
  o.parallel_search = false;  // shards scanned on the client thread
  o.index.compress_postings = true;
  return o;
}

/// Builds something at least kMinSetupRepeats times and for at least
/// kMinSetupSeconds (each build timed), keeps the last, and returns the
/// median build time.
template <typename T, typename Fn>
double RepeatedSetup(std::unique_ptr<T>* keep, Fn&& build) {
  std::vector<double> times;
  double total = 0.0;
  while (times.size() < kMinSetupRepeats || total < kMinSetupSeconds) {
    keep->reset();
    g_pacer.Probe();
    auto t0 = Clock::now();
    *keep = build();
    times.push_back(SecondsSince(t0));
    total += times.back();
  }
  std::printf("set-up: median of %zu builds\n", times.size());
  return Median(times);
}

traffic::ZipfQueryStream MakeStream(const synthweb::WebCorpus& corpus,
                                    uint64_t seed) {
  traffic::ZipfStreamOptions o;
  o.distinct = kPoolDistinct;
  o.total = kStreamLength;
  o.pool_seed = Mix(seed, 11);
  o.draw_seed = Mix(seed, 12);
  return traffic::BuildZipfQueryStream(corpus, o);
}

void WarmUp(serve::Engine* engine, const std::vector<std::string>& stream,
            size_t* cursor) {
  for (size_t i = 0; i < kWarmupQueries; ++i) {
    engine->Search(stream[(*cursor)++ % stream.size()], kTopK);
  }
}

/// The traced run's program-side tracer (kept spans for the remote
/// per-layer rows) and bench-side span log.
struct TraceKit {
  SpanLog spans;
  obs::Tracer tracer;
  TraceKit() : tracer([] {
    obs::TracerOptions o;
    o.sample_every = kTraceSampleEvery;
    o.max_traces = 16384;
    return o;
  }()) {}
};

// surface: passes of the SurfacingDriver over the surfacing corpus, each
// into a fresh 4-shard index, then a short serving phase over what the
// last pass surfaced.
struct SurfaceWorld {
  std::unique_ptr<SurfacingInput> input;
  traffic::ZipfQueryStream stream;
};

Report RunSurface(const Options& opt, TraceKit* kit) {
  Report report;
  report.headline = "surface_pages_per_s";
  std::unique_ptr<SurfaceWorld> world;
  const double setup_s = RepeatedSetup(&world, [&] {
    auto w = std::make_unique<SurfaceWorld>();
    w->input = BuildSurfacingInput(kSurfShape, Mix(opt.seed, 1));
    w->stream = MakeStream(w->input->corpus, opt.seed);
    return w;
  });
  Note("set-up done");
  SpanLog* spans = kit != nullptr ? &kit->spans : nullptr;
  std::unique_ptr<TracedWeb> traced_web;
  if (kit != nullptr) traced_web = MakeTracedWeb(world->input->corpus, spans);
  net::SimulatedWeb* web =
      kit != nullptr ? &traced_web->web : world->input->corpus.web.get();

  // Window part 1: whole passes while the next one fits in `seconds`.
  SurfacingRate rate;
  std::unique_ptr<index::ShardedIndex> index;
  std::unique_ptr<IngestRecorder> recorder;
  SurfacingRun last;
  int64_t handle_before = 0;
  const auto start = Clock::now();
  for (size_t pass = 0;; ++pass) {
    recorder.reset();
    index = std::make_unique<index::ShardedIndex>(ServingIndexOptions());
    recorder = std::make_unique<IngestRecorder>(index.get(), spans);
    if (traced_web != nullptr) handle_before = traced_web->handle_ns();
    SurfacingRun run = RunSurfacing(*world->input, web, recorder.get(),
                                    Mix(opt.seed, 2), spans, &report);
    report.attempted += recorder->batches();
    report.failed += recorder->failed();
    if (pass > 0 && (run.site_fetches != last.site_fetches ||
                     run.url_set != last.url_set)) {
      report.Fail("surfacing passes over one work-list differ");
    }
    rate.Add(run);
    last = std::move(run);
    const double elapsed = SecondsSince(start);
    if (!report.problems.empty() ||
        elapsed * static_cast<double>(pass + 2) / static_cast<double>(pass + 1) >
            opt.seconds) {
      break;
    }
  }

  // Window part 2: the closed-loop client over what was surfaced.
  std::unique_ptr<TimedReadIndex> timed;
  const index::SearchIndex* read = index.get();
  if (kit != nullptr) {
    timed = std::make_unique<TimedReadIndex>(index.get(), spans);
    read = timed.get();
  }
  const obs::Tracer* tracer = kit != nullptr ? &kit->tracer : nullptr;
  serve::EngineOptions eopts;
  if (kit != nullptr) eopts.tracer = &kit->tracer;
  serve::Engine engine(read, eopts);
  size_t cursor = 0;
  WarmUp(&engine, world->stream.queries, &cursor);
  const ServeSnap a = Snap(engine, *index, nullptr, timed.get(), tracer);
  ServeWindow w;
  RunClient(&engine, index.get(), world->stream.queries, &cursor,
            std::max(1.0, opt.seconds / 2.0), kSlices, 0, spans, &w);
  const ServeSnap b = Snap(engine, *index, nullptr, timed.get(), tracer);
  const double rss = PeakRssMb();
  g_pacer.Probe();
  Note("window done");

  report.E2e("setup_s", setup_s, "s");
  SurfacingEndToEnd(*world->input, last, rate, recorder.get(), &report);
  ServingEndToEnd(w, &report);
  report.E2e("rss_mb", rss, "MB");
  if (kit != nullptr) {
    SurfacingLayers(last, *traced_web, *recorder, handle_before, &report);
    ServingLayers(w, a, b, *index, nullptr, WindowTraces(kit->tracer, a),
                  nullptr, &report);
    StageProfile(*world->input, last, spans, &report);
  }
  CheckAgainstOracle(&engine, {}, recorder->recorded(), std::move(w.samples),
                     world->stream.pool, &report);
  return report;
}

// local_serve and remote_churn: ~50k entity documents behind
// serve::Engine, in-process (4-shard ShardedIndex) or remote (2 shards x
// 2 replicas behind the Coordinator). Each also surfaces a web into its
// live serving index: before the window (local_serve) or alternating
// with the client (remote_churn).
struct ServeWorld {
  std::vector<index::Document> base_docs;
  std::unique_ptr<SurfacingInput> input;
  traffic::ZipfQueryStream stream;
  std::unique_ptr<index::ShardedIndex> sharded;
  std::unique_ptr<remote::LoopbackTransport> loopback;
  std::unique_ptr<TimedTransport> timed_transport;
  std::unique_ptr<remote::Coordinator> coordinator;
  index::WritableIndex* serving = nullptr;
};

std::unique_ptr<ServeWorld> BuildServeWorld(const Options& opt, bool remote,
                                            TraceKit* kit) {
  auto w = std::make_unique<ServeWorld>();
  synthweb::WebCorpus base = BuildWeb(kBaseShape, Mix(opt.seed, 4));
  w->base_docs = synthweb::EntityDocuments(base);
  w->stream = MakeStream(base, opt.seed);
  w->input = BuildSurfacingInput(kSurfShape, Mix(opt.seed, remote ? 5 : 1));
  if (!remote) {
    w->sharded = std::make_unique<index::ShardedIndex>(ServingIndexOptions());
    w->serving = w->sharded.get();
  } else {
    remote::ShardServerOptions server;
    server.index.compress_postings = true;
    server.num_workers = 1;  // see the noise rules in the file comment
    w->loopback = std::make_unique<remote::LoopbackTransport>(2, 2, server);
    remote::Transport* transport = w->loopback.get();
    remote::CoordinatorOptions copts;
    copts.fanout_threads = 1;  // shard 0 runs on the calling thread
    if (kit != nullptr) {
      w->timed_transport =
          std::make_unique<TimedTransport>(w->loopback.get(), &kit->spans);
      transport = w->timed_transport.get();
      copts.tracer = &kit->tracer;
    }
    w->coordinator = std::make_unique<remote::Coordinator>(transport, copts);
    w->serving = w->coordinator.get();
  }
  DS_CHECK_OK(w->serving->InsertBatch(w->base_docs).status());
  return w;
}

/// Pins this thread, and every thread it starts later, to the CPU it is
/// running on. Returns that CPU, or -1 when pinning is refused.
int PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return -1;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0 ? cpu : -1;
}

Report RunServe(const Options& opt, bool remote, TraceKit* kit) {
  if (remote) {
    // Every thread the cluster starts inherits this one CPU; see the noise
    // rules in the file comment.
    std::printf("remote_churn threads pinned to cpu %d\n", PinToCurrentCpu());
  }
  Report report;
  report.headline = "query_qps";
  std::unique_ptr<ServeWorld> world;
  const double setup_s = RepeatedSetup(
      &world, [&] { return BuildServeWorld(opt, remote, kit); });
  Note("set-up done");
  SpanLog* spans = kit != nullptr ? &kit->spans : nullptr;
  std::unique_ptr<TracedWeb> traced_web;
  if (kit != nullptr) traced_web = MakeTracedWeb(world->input->corpus, spans);
  net::SimulatedWeb* web =
      kit != nullptr ? &traced_web->web : world->input->corpus.web.get();
  IngestRecorder recorder(world->serving, spans);

  std::unique_ptr<TimedReadIndex> timed;
  const index::SearchIndex* read = world->serving;
  if (kit != nullptr) {
    timed = std::make_unique<TimedReadIndex>(world->serving, spans);
    read = timed.get();
  }
  const obs::Tracer* tracer = kit != nullptr ? &kit->tracer : nullptr;
  serve::EngineOptions eopts;
  if (kit != nullptr) eopts.tracer = &kit->tracer;
  serve::Engine engine(read, eopts);
  size_t cursor = 0;

  SurfacingRun run;
  ServeWindow w;
  ServeSnap a, b;
  if (!remote) {
    // Surface into the live index, then serve what it now holds.
    run = RunSurfacing(*world->input, web, &recorder, Mix(opt.seed, 2), spans,
                       &report);
    WarmUp(&engine, world->stream.queries, &cursor);
    a = Snap(engine, *world->serving, nullptr, timed.get(), tracer);
    RunClient(&engine, world->serving, world->stream.queries, &cursor,
              opt.seconds, kSlices, 0, spans, &w);
    b = Snap(engine, *world->serving, nullptr, timed.get(), tracer);
  } else {
    // The writer's SurfacingDriver runs and the client's phases alternate:
    // after each run's last committed batch, the client serves
    // seconds/kChunks.
    WarmUp(&engine, world->stream.queries, &cursor);
    if (world->timed_transport != nullptr) {
      world->timed_transport->set_recording(true);
    }
    a = Snap(engine, *world->serving, world->coordinator.get(), timed.get(),
             tracer);
    run = RunSurfacing(*world->input, web, &recorder, Mix(opt.seed, 6), spans,
                       &report, [&] {
                         RunClient(&engine, world->serving,
                                   world->stream.queries, &cursor,
                                   opt.seconds / kChunks, 1,
                                   kChurnRateQueries, spans, &w);
                       });
    b = Snap(engine, *world->serving, world->coordinator.get(), timed.get(),
             tracer);
    std::printf("coordinator: %llu rpcs, %llu hedges (%llu won), %llu "
                "failovers, %llu timeouts, %llu partial results, %llu "
                "ingest stragglers, %llu replicas dead\n",
                static_cast<unsigned long long>(b.coord.rpcs - a.coord.rpcs),
                static_cast<unsigned long long>(b.coord.hedges - a.coord.hedges),
                static_cast<unsigned long long>(b.coord.hedge_wins -
                                                a.coord.hedge_wins),
                static_cast<unsigned long long>(b.coord.failovers -
                                                a.coord.failovers),
                static_cast<unsigned long long>(b.coord.timeouts -
                                                a.coord.timeouts),
                static_cast<unsigned long long>(b.coord.partial_results -
                                                a.coord.partial_results),
                static_cast<unsigned long long>(b.coord.ingest_stragglers -
                                                a.coord.ingest_stragglers),
                static_cast<unsigned long long>(b.coord.replicas_dead));
    if (world->timed_transport != nullptr) {
      world->timed_transport->set_recording(false);
    }
  }
  report.attempted += recorder.batches();
  report.failed += recorder.failed();
  const double rss = PeakRssMb();
  g_pacer.Probe();
  Note("window done");

  report.E2e("setup_s", setup_s, "s");
  SurfacingRate rate;
  rate.Add(run);
  SurfacingEndToEnd(*world->input, run, rate, &recorder, &report);
  ServingEndToEnd(w, &report);
  report.E2e("rss_mb", rss, "MB");
  if (kit != nullptr) {
    SurfacingLayers(run, *traced_web, recorder, 0, &report);
    ServingLayers(w, a, b, *world->serving, world->timed_transport.get(),
                  WindowTraces(kit->tracer, a), remote ? &recorder : nullptr,
                  &report);
    StageProfile(*world->input, run, spans, &report);
  }
  CheckAgainstOracle(&engine, world->base_docs, recorder.recorded(),
                     std::move(w.samples), world->stream.pool, &report);
  return report;
}

bool ParseOptions(int argc, char** argv, Options* opt) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      opt->workload = value;
    } else if (flag == "--seed") {
      opt->seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      opt->seconds = std::atof(value);
    } else if (flag == "--trace") {
      opt->trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--spans") {
      opt->spans_path = value;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && opt->seconds > 0.0 &&
         (opt->workload == "surface" || opt->workload == "local_serve" ||
          opt->workload == "remote_churn");
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(), metrics[i].value,
                metrics[i].unit.c_str());
  }
}

bool WriteFile(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool wrote = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && wrote;
}

int Main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--probe") == 0) {
    std::printf("%.6f\n", AllocLoopMs());
    return 0;
  }
  Options opt;
  if (!ParseOptions(argc, argv, &opt)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload surface|local_serve|"
                 "remote_churn --seed N --seconds S --trace 0|1 "
                 "[--spans PATH]\n");
    return 2;
  }
  RunEnv env;
  MeasureParallelism(&env);

  std::unique_ptr<TraceKit> kit;
  if (opt.trace) kit = std::make_unique<TraceKit>();
  Report report = opt.workload == "surface"
                      ? RunSurface(opt, kit.get())
                      : RunServe(opt, opt.workload == "remote_churn",
                                 kit.get());
  Note("checks done");
  CheckRatios(&report);
  if (g_pacer.failed() != 0 || g_pacer.probe_ms().size() < 2) {
    report.Fail(std::to_string(g_pacer.failed()) + " box-speed probes failed");
  }
  const double slowdown = g_pacer.Slowdown();
  for (Metric& m : report.end_to_end) {
    if (m.scaled) continue;
    if (m.unit == "s" || m.unit == "ms") m.value /= slowdown;
    if (m.unit == "1/s") m.value *= slowdown;
  }

  const std::vector<double>& probes = g_pacer.probe_ms();
  std::printf("env: {\"seed\": %llu, \"effective_parallelism\": %.3f, "
              "\"spin_ms_1_2_4\": [%.1f, %.1f, %.1f], "
              "\"calibration_alloc_ms_before_after\": [%.2f, %.2f], "
              "\"probes\": %zu, \"probe_ms_median\": %.2f, "
              "\"slowdown\": %.4f}\n",
              static_cast<unsigned long long>(opt.seed),
              env.effective_parallelism, env.spin_ms[0], env.spin_ms[1],
              env.spin_ms[2], probes.empty() ? 0.0 : probes.front(),
              probes.empty() ? 0.0 : probes.back(), probes.size(),
              Median(probes), slowdown);
  std::printf("probe_ms:");
  for (double ms : probes) std::printf(" %.1f", ms);
  std::printf("\n");
  for (const Metric& m : report.end_to_end) {
    std::printf("metric %-24s %14.6f %-8s (raw %.6f)\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.raw);
  }
  std::printf("metric %-24s %14.6f ratio  (%llu of %llu operations)\n",
              "failed_frac",
              Ratio(static_cast<double>(report.failed),
                    static_cast<double>(report.attempted)),
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  for (const Metric& m : report.end_to_end) {
    if (m.name == report.headline) {
      std::printf("headline %s %.17g\n", m.name.c_str(), m.value);
    }
  }
  if (kit != nullptr) {
    for (const Metric& m : report.per_layer) {
      std::printf("layer %-32s %14.6f %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
    if (!opt.spans_path.empty()) {
      const std::string program = opt.spans_path + ".program.json";
      if (!kit->spans.Write(opt.spans_path) ||
          !WriteFile(program, kit->tracer.SpansJson())) {
        report.Fail("could not write spans to " + opt.spans_path);
      }
      std::printf("spans: %zu bench spans -> %s, %llu program traces -> %s\n",
                  kit->spans.size(), opt.spans_path.c_str(),
                  static_cast<unsigned long long>(
                      kit->tracer.traces_committed()),
                  program.c_str());
    }
  }
  if (!report.problems.empty()) {
    for (const auto& p : report.problems) {
      std::fprintf(stderr, "CHECK FAILED: %s\n", p.c_str());
    }
    return 1;
  }
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  PrintMetrics(kit != nullptr ? report.per_layer : report.end_to_end);
  std::printf("}}\n");
  return 0;
}

}  // namespace
}  // namespace e2e
}  // namespace deepsurf

int main(int argc, char** argv) {
  return deepsurf::e2e::Main(argc, argv);
}
