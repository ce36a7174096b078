#include "crawler/surfacing_driver.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <thread>

#include "html/parser.h"
#include "html/text.h"
#include "util/rng.h"

namespace deepsurf {
namespace crawler {

namespace {

/// Documents per InsertBatch call during ingestion.
constexpr size_t kIndexBatchSize = 64;

/// SplitMix64 finalizer: decorrelates the per-form streams derived from
/// consecutive work-list indices.
uint64_t DeriveStream(uint64_t seed, uint64_t index) {
  uint64_t z = seed + (index + 1) * 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

SurfacingDriver::SurfacingDriver(net::ProbeScheduler* scheduler,
                                 index::WritableIndex* out_index,
                                 SurfacingDriverOptions options)
    : scheduler_(scheduler),
      out_index_(out_index),
      options_(std::move(options)) {}

void SurfacingDriver::ProcessForm(const std::vector<DiscoveredForm>& forms,
                                  size_t i) {
  const DiscoveredForm& discovered = forms[i];
  FormOutcome& out = outcomes_[i];
  out.page_url = discovered.page_url;
  out.rng_stream = DeriveStream(options_.seed, i);

  core::Surfacer surfacer(scheduler_, options_.seed_index,
                          options_.surfacer);
  auto result = surfacer.Surface(discovered.page_url, discovered.form,
                                 discovered.page_scripts);
  if (!result.ok()) {
    out.status = result.status();
    return;
  }
  out.result = std::move(*result);
  if (out.result.skipped_post) return;

  // Ingest the surfaced pages. The fetch order is shuffled with the
  // form's own RNG stream (a real deployment spreads the load rather
  // than hammering one site in URL order); determinism holds because the
  // stream depends only on (seed, work-list index).
  std::vector<size_t> order(out.result.urls.size());
  for (size_t k = 0; k < order.size(); ++k) order[k] = k;
  Rng rng(out.rng_stream);
  rng.Shuffle(&order);

  std::vector<index::Document> batch;
  std::vector<const core::SurfacedUrl*> batch_sources;
  batch.reserve(kIndexBatchSize);
  auto flush = [&] {
    if (batch.empty()) return;
    std::vector<bool> newly_added;
    auto added = out_index_->InsertBatch(batch, &newly_added);
    if (added.ok()) {
      out.pages_indexed += *added;
      // Record binding annotations for the pages that entered the index
      // (the same newly-indexed-only rule as core::IndexSurfacedUrls).
      if (options_.annotations != nullptr) {
        std::lock_guard<std::mutex> lock(annotations_mu_);
        for (size_t b = 0; b < batch.size(); ++b) {
          if (!newly_added[b]) continue;
          for (const auto& [name, value] : batch_sources[b]->bindings) {
            options_.annotations->Add(batch[b].url,
                                      extract::Annotation{name, value});
          }
        }
      }
    }
    batch.clear();
    batch_sources.clear();
  };
  for (size_t k : order) {
    const core::SurfacedUrl& surfaced = out.result.urls[k];
    auto resp = scheduler_->Fetch(surfaced.url);
    if (!resp.ok() || resp->status_code != 200) continue;
    auto dom = html::Parse(resp->body);
    index::Document doc;
    doc.url = surfaced.url.ToCanonicalString();
    doc.title = html::ExtractTitle(*dom);
    doc.body = html::ExtractText(*dom);
    doc.is_deep_web = true;
    doc.source_host = surfaced.url.host();
    batch.push_back(std::move(doc));
    batch_sources.push_back(&surfaced);
    if (batch.size() >= kIndexBatchSize) flush();
  }
  flush();
}

Result<SurfacingDriverStats> SurfacingDriver::Run(
    const std::vector<DiscoveredForm>& forms) {
  if (!outcomes_.empty()) {
    return Status::FailedPrecondition("SurfacingDriver::Run called twice");
  }
  if (out_index_ == nullptr) {
    return Status::InvalidArgument("SurfacingDriver needs an output index");
  }
  if (options_.seed_index != nullptr &&
      static_cast<const index::SearchIndex*>(options_.seed_index) ==
          static_cast<const index::SearchIndex*>(out_index_)) {
    return Status::InvalidArgument(
        "seed index must be distinct from the output index (unsynchronized "
        "reads against a growing index, and nondeterministic seeds)");
  }
  auto start = std::chrono::steady_clock::now();
  outcomes_.resize(forms.size());

  // Stable work-queue order: a seed-keyed permutation of the work-list,
  // fixed before any worker starts. Workers claim entries through one
  // atomic cursor; outcomes land at the entry's original index, so the
  // output order never depends on scheduling.
  std::vector<size_t> work_order(forms.size());
  for (size_t i = 0; i < work_order.size(); ++i) work_order[i] = i;
  Rng queue_rng(DeriveStream(options_.seed, ~uint64_t{0}));
  queue_rng.Shuffle(&work_order);

  std::atomic<size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      size_t pos = cursor.fetch_add(1);
      if (pos >= work_order.size()) return;
      ProcessForm(forms, work_order[pos]);
    }
  };

  size_t threads = std::max<size_t>(1, options_.num_threads);
  if (threads == 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(threads);
    for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker);
    for (auto& th : pool) th.join();
  }

  SurfacingDriverStats stats;
  stats.forms_total = forms.size();
  for (const auto& out : outcomes_) {
    if (!out.status.ok()) {
      ++stats.forms_failed;
      continue;
    }
    if (out.result.skipped_post) {
      ++stats.forms_skipped_post;
      continue;
    }
    ++stats.forms_analyzed;
    stats.urls_generated += out.result.urls.size();
    stats.analysis_probes += out.result.probes_used;
    stats.pages_indexed += out.pages_indexed;
  }
  stats.scheduler = scheduler_->stats();
  stats.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  return stats;
}

std::vector<std::string> SurfacingDriver::SurfacedUrlSet() const {
  std::vector<std::string> urls;
  for (const auto& out : outcomes_) {
    for (const auto& surfaced : out.result.urls) {
      urls.push_back(surfaced.url.ToCanonicalString());
    }
  }
  std::sort(urls.begin(), urls.end());
  urls.erase(std::unique(urls.begin(), urls.end()), urls.end());
  return urls;
}

}  // namespace crawler
}  // namespace deepsurf
