// Shared helpers for the experiment harnesses: site construction, form
// harvesting, and table printing. Every experiment binary prints a header
// naming the paper claim it reproduces, the measured rows, and a PASS /
// DIVERGED verdict on the claim's *shape* (who wins, by what factor).

#ifndef DEEPSURF_BENCH_BENCH_COMMON_H_
#define DEEPSURF_BENCH_BENCH_COMMON_H_

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "core/form_model.h"
#include "html/forms.h"
#include "html/parser.h"
#include "html/text.h"
#include "net/web.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "remote/transport.h"
#include "synthweb/deep_site.h"
#include "util/logging.h"

namespace deepsurf {
namespace bench {

/// One generated site registered on its own simulated web, with the
/// harvested and analyzed form (fetched through the real pipeline).
struct SiteFixture {
  net::SimulatedWeb web;
  std::shared_ptr<synthweb::DeepWebSite> site;
  net::Url page_url;
  html::Form form;
  std::string scripts;
  core::AnalyzedForm analyzed;
};

inline std::unique_ptr<SiteFixture> MakeFixture(
    synthweb::Domain domain, uint64_t seed, size_t rows,
    const std::string& host = "site.example.com") {
  auto f = std::make_unique<SiteFixture>();
  Rng rng(seed);
  synthweb::SiteGenOptions opts;
  opts.num_rows = rows;
  opts.force_get = true;
  opts.obfuscate_probability = 0.0;
  f->site = std::make_shared<synthweb::DeepWebSite>(
      synthweb::GenerateSite(domain, host, &rng, opts));
  DS_CHECK_OK(f->web.Register(f->site));
  auto resp = f->web.Get(f->site->FormPageUrl());
  DS_CHECK(resp.ok());
  auto dom = html::Parse(resp->body);
  auto forms = html::ExtractForms(*dom);
  DS_CHECK(forms.size() == 1);
  f->form = forms[0];
  f->scripts = html::ExtractScriptText(*dom);
  f->page_url = net::Url::Parse(f->site->FormPageUrl()).value();
  auto analyzed = core::AnalyzeForm(f->page_url, f->form, f->scripts);
  DS_CHECK(analyzed.ok());
  f->analyzed = std::move(analyzed).value();
  return f;
}

inline void Header(const char* experiment, const char* claim) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", experiment);
  std::printf("paper claim: %s\n", claim);
  std::printf("================================================================\n");
}

inline void Verdict(bool ok, const char* shape) {
  std::printf("----------------------------------------------------------------\n");
  std::printf("shape check [%s]: %s\n", ok ? "PASS" : "DIVERGED", shape);
}

/// One instance's block of a composed metrics pane: a `# <instance>`
/// header line, then that instance's own registry exposition. Serving
/// components each own their registry, so a pane over several of them
/// is the concatenation of one block per instance.
inline std::string PaneBlock(const std::string& instance,
                             const obs::MetricsRegistry& registry) {
  return "# " + instance + "\n" + registry.TextDump();
}

/// Appends one PaneBlock per shard server behind `transport`, labelled
/// `<label> server shard=S replica=R`.
inline void AppendServerBlocks(const std::string& label,
                               remote::LoopbackTransport& transport,
                               std::string* pane) {
  for (size_t s = 0; s < transport.num_shards(); ++s) {
    for (size_t r = 0; r < transport.num_replicas(); ++r) {
      *pane += PaneBlock(label + " server shard=" + std::to_string(s) +
                             " replica=" + std::to_string(r),
                         transport.server(s, r).metrics());
    }
  }
}

/// Writes the observability artifacts next to a bench's --json output —
/// OBS_<bench>_metrics.txt (`pane`: the caller's PaneBlocks, one per
/// instance) and OBS_<bench>_spans.json (every committed span tree) —
/// and checks the tracing contract the harnesses gate on: every
/// committed trace is a complete tree (no span's parent link points
/// outside its trace). The check always runs; only the files depend on
/// json_path. Returns the no-orphans verdict.
inline bool DumpObs(const char* bench, const char* json_path,
                    const std::string& pane, const obs::Tracer& tracer) {
  const std::vector<obs::Trace> traces = tracer.Traces();
  size_t orphaned = 0;
  for (const obs::Trace& t : traces) {
    if (!obs::TreeComplete(t)) ++orphaned;
  }
  std::printf("obs: %zu span trees committed (%zu incomplete), "
              "%zu slow-query log entries\n",
              traces.size(), orphaned, tracer.SlowLog().size());
  if (json_path != nullptr) {
    std::string dir(json_path);
    size_t slash = dir.find_last_of('/');
    dir = slash == std::string::npos ? std::string() : dir.substr(0, slash + 1);
    const std::string metrics_path = dir + "OBS_" + bench + "_metrics.txt";
    const std::string spans_path = dir + "OBS_" + bench + "_spans.json";
    if (std::FILE* f = std::fopen(metrics_path.c_str(), "w")) {
      std::fwrite(pane.data(), 1, pane.size(), f);
      std::fclose(f);
    }
    if (std::FILE* f = std::fopen(spans_path.c_str(), "w")) {
      std::string text = tracer.SpansJson();
      std::fwrite(text.data(), 1, text.size(), f);
      std::fclose(f);
    }
    std::printf("obs artifacts written to %s and %s\n", metrics_path.c_str(),
                spans_path.c_str());
  }
  return orphaned == 0;
}

}  // namespace bench
}  // namespace deepsurf

#endif  // DEEPSURF_BENCH_BENCH_COMMON_H_
