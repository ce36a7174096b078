// End-to-end tests for the surfacer.

#include <gtest/gtest.h>

#include <set>

#include "core/surfacer.h"
#include "net/fetcher.h"
#include "test_support.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

SurfacerOptions FastOptions() {
  SurfacerOptions opts;
  opts.templates.sample_assignments = 8;
  opts.probing.rounds = 2;
  opts.probe_budget = 1200;
  return opts;
}

TEST(SurfacerTest, SurfacesUsedCarsSite) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 401, 300);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->skipped_post);
  EXPECT_FALSE(result->urls.empty());
  EXPECT_GT(result->templates_informative, 0u);
  EXPECT_GT(result->probes_used, 0u);
}

TEST(SurfacerTest, SurfacedUrlsResolveToResultPages) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 403, 300);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->urls.empty());
  size_t with_results = 0;
  size_t checked = 0;
  for (const auto& surfaced : result->urls) {
    if (checked >= 30) break;
    ++checked;
    auto resp = h->web.Get(surfaced.url);
    ASSERT_TRUE(resp.ok());
    EXPECT_EQ(resp->status_code, 200);
    if (resp->body.find("No results") == std::string::npos) ++with_results;
  }
  // Most surfaced URLs carry actual records (informativeness did its job).
  EXPECT_GT(with_results * 2, checked);
}

TEST(SurfacerTest, PostFormSkipped) {
  Rng rng(405);
  synthweb::SiteGenOptions gen;
  gen.num_rows = 50;
  gen.post_probability = 1.0;
  auto spec = synthweb::GenerateSite(synthweb::Domain::kJobs,
                                     "post.example.com", &rng, gen);
  net::SimulatedWeb web;
  auto site = std::make_shared<synthweb::DeepWebSite>(spec);
  ASSERT_TRUE(web.Register(site).ok());
  auto resp = web.Get(site->FormPageUrl());
  auto dom = html::Parse(resp->body);
  auto forms = html::ExtractForms(*dom);
  ASSERT_EQ(forms.size(), 1u);
  Surfacer surfacer(&web, nullptr, FastOptions());
  auto page_url = net::Url::Parse(site->FormPageUrl()).value();
  auto result = surfacer.Surface(page_url, forms[0]);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->skipped_post);
  EXPECT_TRUE(result->urls.empty());
  EXPECT_EQ(result->probes_used, 0u);
}

TEST(SurfacerTest, RangePairCompiledNotCrossed) {
  auto h = MakeSite(synthweb::Domain::kRealEstate, 407, 400);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  // Every surfaced URL that binds the range's min also binds its max to a
  // band partner (never min-only or crossed combinations).
  auto truth = h->site->spec().RangePairs();
  ASSERT_FALSE(truth.empty());
  const auto& [min_name, max_name] = truth[0];
  for (const auto& surfaced : result->urls) {
    bool has_min = surfaced.url.HasParam(min_name);
    bool has_max = surfaced.url.HasParam(max_name);
    EXPECT_EQ(has_min, has_max) << surfaced.url.ToString();
  }
}

TEST(SurfacerTest, UrlCapEnforced) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 409, 300);
  SurfacerOptions opts = FastOptions();
  opts.max_urls_per_form = 15;
  Surfacer surfacer(&h->web, nullptr, opts);
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->urls.size(), 15u);
}

TEST(SurfacerTest, UrlsAreUnique) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 411, 200);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  std::set<std::string> seen;
  for (const auto& surfaced : result->urls) {
    EXPECT_TRUE(seen.insert(surfaced.url.ToCanonicalString()).second)
        << surfaced.url.ToString();
  }
}

TEST(SurfacerTest, TypedVerdictsReported) {
  auto h = MakeSite(synthweb::Domain::kStoreLocator, 413, 400);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  // The zip box must be recognized.
  bool zip_found = false;
  for (const auto& [name, verdict] : result->typed_verdicts) {
    if (verdict.type == DataType::kZipCode) zip_found = true;
  }
  EXPECT_TRUE(zip_found);
}

TEST(SurfacerTest, DbSelectionCompiled) {
  auto h = MakeSite(synthweb::Domain::kMediaLibrary, 415, 240);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  ASSERT_FALSE(result->dbselect.empty());
  EXPECT_TRUE(result->dbselect[0].is_db_selector);
  // Surfaced URLs bind (selector, keyword) jointly.
  std::string selector = result->dbselect[0].select_input;
  std::string box = result->dbselect[0].text_input;
  size_t joint = 0;
  for (const auto& surfaced : result->urls) {
    if (surfaced.url.HasParam(selector)) {
      EXPECT_TRUE(surfaced.url.HasParam(box));
      ++joint;
    }
  }
  EXPECT_GT(joint, 0u);
}

TEST(SurfacerTest, DbSelectionKeepsOptionsMinedBeforeBudgetRunsOut) {
  // Where per-option mining starts and ends, measured with no budget:
  // the media library's analysis ends with it (both inputs are consumed
  // by the db-selection pattern).
  SurfacerOptions unlimited = FastOptions();
  unlimited.probe_budget = 0;
  auto measured = MakeSite(synthweb::Domain::kMediaLibrary, 415, 240);
  net::ProbeScheduler scheduler(&measured->web);
  auto ctx = AnalyzeInputs(&scheduler, nullptr, unlimited,
                           measured->page_url, measured->form,
                           measured->scripts);
  ASSERT_TRUE(ctx.ok());
  const size_t before_mining = ctx->prober->fetches();
  ASSERT_TRUE(MineCandidates(&*ctx).ok());
  const size_t after_mining = ctx->prober->fetches();
  ASSERT_EQ(ctx->result.dbselect.size(), 1u);
  ASSERT_EQ(ctx->result.dbselect[0].keywords_by_option.size(), 4u);

  // A budget that runs out halfway through mining keeps the options
  // mined before it, and they still surface (selector, keyword) URLs.
  SurfacerOptions opts = FastOptions();
  opts.probe_budget = (before_mining + after_mining) / 2;
  auto h = MakeSite(synthweb::Domain::kMediaLibrary, 415, 240);
  Surfacer surfacer(&h->web, nullptr, opts);
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->probes_used, opts.probe_budget);
  ASSERT_EQ(result->dbselect.size(), 1u);
  const DbSelectVerdict& verdict = result->dbselect[0];
  EXPECT_TRUE(verdict.is_db_selector);
  EXPECT_FALSE(verdict.keywords_by_option.empty());
  EXPECT_LT(verdict.keywords_by_option.size(), 4u);
  size_t joint = 0;
  for (const auto& surfaced : result->urls) {
    if (surfaced.url.HasParam(verdict.select_input) &&
        surfaced.url.HasParam(verdict.text_input)) {
      ++joint;
    }
  }
  EXPECT_GT(joint, 0u);
}

TEST(SurfacerTest, AblationDisablingRangesCrossesMinMax) {
  auto h = MakeSite(synthweb::Domain::kRealEstate, 417, 300);
  SurfacerOptions opts = FastOptions();
  opts.enable_ranges = false;
  Surfacer surfacer(&h->web, nullptr, opts);
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->ranges.empty());
}

TEST(SurfacerTest, NaiveCardinalityExceedsSurfacedUrls) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 419, 300);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto smart = surfacer.Surface(h->page_url, h->form, h->scripts);
  auto naive = surfacer.NaiveSurface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(smart.ok());
  ASSERT_TRUE(naive.ok());
  // The naive cross product dwarfs the informed scheme.
  EXPECT_GT(naive->cardinality, smart->urls.size() * 4);
}

TEST(SurfacerTest, IndexSurfacedUrlsPopulatesIndexAndAnnotations) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 421, 200);
  SurfacerOptions opts = FastOptions();
  opts.max_urls_per_form = 40;
  Surfacer surfacer(&h->web, nullptr, opts);
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  index::InvertedIndex index;
  extract::AnnotationStore store;
  auto indexed = IndexSurfacedUrls(&h->web, &index, result->urls, &store);
  ASSERT_TRUE(indexed.ok());
  EXPECT_GT(*indexed, 0u);
  EXPECT_EQ(index.num_docs(), *indexed);  // duplicates suppressed
  EXPECT_GT(store.num_annotated_urls(), 0u);
  for (size_t d = 0; d < index.num_docs(); ++d) {
    EXPECT_TRUE(index.doc(static_cast<index::DocId>(d)).is_deep_web);
  }
}

TEST(SurfacerTest, ProbeBudgetIsLightRelativeToContent) {
  // The paper: light analysis load, URLs proportional to content.
  auto h = MakeSite(synthweb::Domain::kUsedCars, 423, 500);
  Surfacer surfacer(&h->web, nullptr, FastOptions());
  auto result = surfacer.Surface(h->page_url, h->form, h->scripts);
  ASSERT_TRUE(result.ok());
  EXPECT_LT(result->probes_used, 1000u);
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
