// Tests for the form prober: page reduction, caching, budgets.

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "core/prober.h"
#include "extract/record_extractor.h"
#include "html/parser.h"
#include "index/analyzer.h"
#include "test_support.h"
#include "util/hash.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

TEST(ReducePageTest, NonHtmlStatusShortCircuits) {
  ProbeResult r = ReducePage(404, "<html>irrelevant</html>");
  EXPECT_EQ(r.status_code, 404);
  EXPECT_FALSE(r.HasResults());
  EXPECT_EQ(r.record_count, 0u);
}

TEST(ReducePageTest, CountsRecords) {
  std::string page =
      "<table><tr><th>a</th><th>b</th></tr>"
      "<tr><td>first record body text</td><td>1</td></tr>"
      "<tr><td>second record body text</td><td>2</td></tr></table>";
  ProbeResult r = ReducePage(200, page);
  EXPECT_TRUE(r.HasResults());
  EXPECT_EQ(r.record_count, 2u);
  EXPECT_EQ(r.record_hashes.size(), 2u);
  EXPECT_EQ(r.record_texts.size(), 2u);
  EXPECT_FALSE(r.TermFrequencies().empty());
}

TEST(ReducePageTest, SignatureIsOrderIndependent) {
  std::string page1 =
      "<div class=i><span>alpha record content</span></div>"
      "<div class=i><span>beta record content</span></div>";
  std::string page2 =
      "<div class=i><span>beta record content</span></div>"
      "<div class=i><span>alpha record content</span></div>";
  EXPECT_EQ(ReducePage(200, page1).signature,
            ReducePage(200, page2).signature);
}

TEST(ReducePageTest, DifferentRecordsDifferentSignature) {
  std::string page1 =
      "<div class=i><span>alpha record content</span></div>"
      "<div class=i><span>beta record content</span></div>";
  std::string page2 =
      "<div class=i><span>gamma record content</span></div>"
      "<div class=i><span>delta record content</span></div>";
  EXPECT_NE(ReducePage(200, page1).signature,
            ReducePage(200, page2).signature);
}

/// The page reduction as it stood when ReducePage built every probe's
/// vocabulary eagerly: term frequencies over the '\n'-joined record
/// region text, and per-record term sets counted into record-document
/// frequencies.
struct ReferenceReduction {
  size_t record_count = 0;
  uint64_t signature = 0;
  std::vector<uint64_t> record_hashes;
  std::map<std::string, double> term_frequencies;
  std::map<std::string, double> record_document_frequencies;
};

ReferenceReduction ReferenceReducePage(int status_code,
                                       const std::string& body) {
  ReferenceReduction out;
  if (status_code != 200) return out;
  auto dom = html::Parse(body);
  auto extraction = extract::ExtractRecords(*dom);
  out.record_count = extraction.records.size();
  std::vector<uint64_t> hashes;
  std::string region_text;
  for (const auto& rec : extraction.records) {
    std::string joined = rec.Joined();
    hashes.push_back(Fnv1a64(joined));
    region_text += joined;
    region_text.push_back('\n');
    std::set<std::string> record_terms;
    for (auto& tok : index::ContentTokens(joined)) {
      record_terms.insert(std::move(tok));
    }
    for (const auto& term : record_terms) {
      out.record_document_frequencies[term] += 1.0;
    }
  }
  std::sort(hashes.begin(), hashes.end());
  uint64_t sig = 0x9e3779b97f4a7c15ULL;
  for (uint64_t h : hashes) sig = HashCombine(sig, h);
  out.signature = sig;
  out.record_hashes = std::move(hashes);
  for (const auto& tok : index::ContentTokens(region_text)) {
    out.term_frequencies[tok] += 1.0;
  }
  return out;
}

TEST(ReducePageTest, VocabularyOnReadEqualsEagerReduction) {
  // Result pages from several domains over 41-row tables: the
  // unconstrained search's first page (many records) and last page (one
  // record wherever the page size divides 40), one page per select
  // option, a keyword no record holds ("no results"), and missing pages
  // (non-200).
  size_t many_record_pages = 0, one_record_pages = 0;
  size_t no_result_pages = 0, non_200_pages = 0;
  for (auto domain :
       {synthweb::Domain::kUsedCars, synthweb::Domain::kRealEstate,
        synthweb::Domain::kJobs, synthweb::Domain::kBooks,
        synthweb::Domain::kRestaurants, synthweb::Domain::kMediaLibrary}) {
    auto h = MakeSite(domain, 11, 41);
    const auto& spec = h->site->spec();
    const size_t rows = spec.tables.front().second->num_rows();
    const size_t page_size = static_cast<size_t>(spec.page_size);
    const size_t last_page = (rows - 1) / page_size;
    if (std::min(rows, page_size) >= 2) ++many_record_pages;
    if (rows - last_page * page_size == 1) ++one_record_pages;
    std::vector<Bindings> submissions = {
        {}, {{"page", std::to_string(last_page)}}};
    for (const auto& input : h->analyzed.inputs) {
      if (input.is_select) {
        for (const auto& v : input.select_values) {
          if (!v.empty()) submissions.push_back({{input.name, v}});
        }
      } else {
        submissions.push_back({{input.name, "zzqxnomatch"}});
      }
    }
    std::vector<std::string> urls = {"http://site.example.com/no-such-page",
                                     "http://site.example.com/item"};
    for (const auto& b : submissions) {
      urls.push_back(SubmissionUrl(h->analyzed, b).ToCanonicalString());
    }
    for (const auto& url : urls) {
      SCOPED_TRACE(url);
      auto resp = h->web.Get(url);
      ASSERT_TRUE(resp.ok());
      ProbeResult r = ReducePage(resp->status_code, resp->body);
      ReferenceReduction ref =
          ReferenceReducePage(resp->status_code, resp->body);
      EXPECT_EQ(r.record_count, ref.record_count);
      EXPECT_EQ(r.record_hashes, ref.record_hashes);
      EXPECT_EQ(r.signature, ref.signature);
      EXPECT_EQ(r.record_texts.size(), ref.record_count);
      EXPECT_EQ(r.TermFrequencies(), ref.term_frequencies);
      EXPECT_EQ(r.RecordDocumentFrequencies(),
                ref.record_document_frequencies);
      if (resp->status_code != 200) {
        ++non_200_pages;
      } else if (r.record_count == 0) {
        ++no_result_pages;
      }
    }
  }
  // Every kind of page was compared.
  EXPECT_GT(many_record_pages, 0u);
  EXPECT_GT(one_record_pages, 0u);
  EXPECT_GT(no_result_pages, 0u);
  EXPECT_GT(non_200_pages, 0u);
}

TEST(ProberTest, ProbeAgainstRealSite) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  auto result = prober.Probe({});
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result->HasResults());
  EXPECT_GT(result->record_count, 0u);
}

TEST(ProberTest, CacheAvoidsRefetch) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  ASSERT_TRUE(prober.Probe({{"make", "Honda"}}).ok());
  size_t fetches_after_first = prober.fetches();
  ASSERT_TRUE(prober.Probe({{"make", "Honda"}}).ok());
  EXPECT_EQ(prober.fetches(), fetches_after_first);
  EXPECT_EQ(prober.cache_hits(), 1u);
}

TEST(ProberTest, CacheKeyIsCanonical) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  ASSERT_TRUE(prober.Probe({{"make", "Honda"}, {"zip", "10001"}}).ok());
  ASSERT_TRUE(prober.Probe({{"zip", "10001"}, {"make", "Honda"}}).ok());
  EXPECT_EQ(prober.cache_hits(), 1u);  // same canonical URL
}

TEST(ProberTest, BudgetEnforced) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed, /*budget=*/2);
  ASSERT_TRUE(prober.Probe({{"zip", "10001"}}).ok());
  ASSERT_TRUE(prober.Probe({{"zip", "90001"}}).ok());
  auto third = prober.Probe({{"zip", "60601"}});
  EXPECT_TRUE(third.status().IsResourceExhausted());
  // Cached probes still work after exhaustion.
  EXPECT_TRUE(prober.Probe({{"zip", "10001"}}).ok());
}

TEST(ProberTest, PostFormRefused) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 40);
  AnalyzedForm post_form = h->analyzed;
  post_form.is_post = true;
  FormProber prober(&h->web, post_form);
  EXPECT_TRUE(prober.Probe({}).status().IsUnimplemented());
}

TEST(ProberTest, EmptyResultPageHasNoRecords) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 3, 80);
  FormProber prober(&h->web, h->analyzed);
  auto result = prober.Probe({{"make", "NoSuchMake"}});
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->HasResults());
  EXPECT_EQ(result->record_count, 0u);
}

TEST(ProberTest, SortParameterDoesNotChangeSignature) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 5, 40);
  // Find a presentation (sort) input if the generated site has one; the
  // signature must be identical since the same records come back.
  const synthweb::FormInputSpec* sort_input = nullptr;
  for (const auto& in : h->site->spec().inputs) {
    if (in.role == synthweb::InputRole::kPresentation &&
        in.html_name != "radius") {
      sort_input = &in;
    }
  }
  if (sort_input == nullptr) {
    GTEST_SKIP() << "this seed generated no sort input";
  }
  FormProber prober(&h->web, h->analyzed);
  auto plain = prober.Probe({});
  auto sorted = prober.Probe({{sort_input->html_name,
                               sort_input->options.back()}});
  ASSERT_TRUE(plain.ok());
  ASSERT_TRUE(sorted.ok());
  EXPECT_EQ(plain->signature, sorted->signature);
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
