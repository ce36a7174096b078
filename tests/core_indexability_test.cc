// Tests for the indexability criterion and scheme selection.

#include <gtest/gtest.h>

#include "core/indexability.h"

namespace deepsurf {
namespace core {
namespace {

EvaluatedTemplate MakeTemplate(std::vector<size_t> inputs,
                               std::vector<size_t> records_per_page,
                               std::vector<uint64_t> hashes,
                               bool informative = true) {
  EvaluatedTemplate t;
  t.inputs = std::move(inputs);
  t.records_per_page = std::move(records_per_page);
  t.sample_record_hashes = std::move(hashes);
  t.informative = informative;
  t.sampled = t.records_per_page.size();
  return t;
}

TEST(IndexabilityTest, MedianInWindowPasses) {
  auto t = MakeTemplate({0}, {5, 10, 15}, {1, 2, 3});
  EXPECT_TRUE(IsIndexable(t, {}));
}

TEST(IndexabilityTest, TooManyRecordsFails) {
  IndexabilityOptions opts;
  opts.max_records_per_page = 50;
  auto t = MakeTemplate({0}, {200, 300, 400}, {1});
  EXPECT_FALSE(IsIndexable(t, opts));
}

TEST(IndexabilityTest, NoSamplesFails) {
  auto t = MakeTemplate({0}, {}, {});
  EXPECT_FALSE(IsIndexable(t, {}));
}

TEST(IndexabilityTest, MedianNotMeanDecides) {
  // One mega page must not disqualify a mostly-normal template.
  auto t = MakeTemplate({0}, {10, 12, 14, 1000}, {1});
  IndexabilityOptions opts;
  opts.max_records_per_page = 100;
  EXPECT_TRUE(IsIndexable(t, opts));
}

class SchemeTest : public ::testing::Test {
 protected:
  SchemeTest() {
    // Two inputs: input 0 with 3 choices, input 1 with 10 choices.
    inputs_.resize(2);
    inputs_[0].name = "a";
    for (int i = 0; i < 3; ++i) {
      inputs_[0].choices.push_back(
          Bindings{{"a", std::to_string(i)}});
    }
    inputs_[1].name = "b";
    for (int i = 0; i < 10; ++i) {
      inputs_[1].choices.push_back(
          Bindings{{"b", std::to_string(i)}});
    }
  }

  std::vector<TemplateInput> inputs_;
  TemplateSearchResult search_;
};

TEST_F(SchemeTest, PicksCheaperTemplateForSameCoverage) {
  // Template A (input 0): covers records 1..30 with 3 URLs.
  // Template B (input 1): covers the same 30 records with 10 URLs.
  std::vector<uint64_t> hashes;
  for (uint64_t h = 1; h <= 30; ++h) hashes.push_back(h);
  search_.evaluated.push_back(MakeTemplate({0}, {10, 10, 10}, hashes));
  search_.evaluated.push_back(MakeTemplate({1}, {3, 3, 3}, hashes));
  auto scheme = SelectScheme(inputs_, search_, /*max_urls=*/0);
  ASSERT_EQ(scheme.templates.size(), 1u);
  EXPECT_EQ(scheme.templates[0]->inputs, (std::vector<size_t>{0}));
  EXPECT_EQ(scheme.estimated_urls, 3u);
  EXPECT_EQ(scheme.estimated_distinct_records, 30u);
}

TEST_F(SchemeTest, AddsTemplatesForNewCoverage) {
  search_.evaluated.push_back(
      MakeTemplate({0}, {10, 10}, {1, 2, 3, 4, 5, 6, 7, 8, 9, 10}));
  search_.evaluated.push_back(
      MakeTemplate({1}, {5, 5}, {11, 12, 13, 14, 15, 16, 17, 18, 19, 20}));
  auto scheme = SelectScheme(inputs_, search_, /*max_urls=*/0);
  EXPECT_EQ(scheme.templates.size(), 2u);
  EXPECT_EQ(scheme.estimated_distinct_records, 20u);
}

TEST_F(SchemeTest, SkipsRedundantTemplate) {
  search_.evaluated.push_back(
      MakeTemplate({0}, {10, 10}, {1, 2, 3, 4, 5, 6, 7, 8}));
  // Subset coverage, more URLs: adds nothing.
  search_.evaluated.push_back(MakeTemplate({1}, {5, 5}, {1, 2, 3}));
  auto scheme = SelectScheme(inputs_, search_, /*max_urls=*/0);
  ASSERT_EQ(scheme.templates.size(), 1u);
  EXPECT_EQ(scheme.templates[0]->inputs, (std::vector<size_t>{0}));
}

TEST_F(SchemeTest, NonIndexableExcluded) {
  IndexabilityOptions opts;
  opts.max_records_per_page = 50;
  search_.evaluated.push_back(
      MakeTemplate({0}, {500, 600}, {1, 2, 3}));  // mega pages
  auto scheme = SelectScheme(inputs_, search_, /*max_urls=*/0, opts);
  EXPECT_TRUE(scheme.templates.empty());
}

TEST_F(SchemeTest, UninformativeExcluded) {
  search_.evaluated.push_back(
      MakeTemplate({0}, {10, 10}, {1, 2, 3}, /*informative=*/false));
  auto scheme = SelectScheme(inputs_, search_, /*max_urls=*/0);
  EXPECT_TRUE(scheme.templates.empty());
}

TEST_F(SchemeTest, UrlCapSkipsExpensiveTemplate) {
  std::vector<uint64_t> big;
  for (uint64_t h = 1; h <= 50; ++h) big.push_back(h);
  search_.evaluated.push_back(MakeTemplate({1}, {10, 10}, big));  // 10 URLs
  search_.evaluated.push_back(
      MakeTemplate({0}, {10, 10}, {1, 2, 3, 4, 5}));  // 3 URLs
  auto scheme = SelectScheme(inputs_, search_, /*max_urls=*/5);
  ASSERT_EQ(scheme.templates.size(), 1u);
  EXPECT_EQ(scheme.templates[0]->inputs, (std::vector<size_t>{0}));
  EXPECT_LE(scheme.estimated_urls, 5u);
}

TEST_F(SchemeTest, MarginalGainFloorStopsSelection) {
  // Input 2 has 100 choices, so a one-input template on it costs 100 URLs.
  inputs_.emplace_back();
  inputs_[2].name = "c";
  for (int i = 0; i < 100; ++i) {
    inputs_[2].choices.push_back(Bindings{{"c", std::to_string(i)}});
  }
  search_.evaluated.push_back(
      MakeTemplate({2}, {5, 5}, {1}));  // 1 record / 100 URLs = 0.01
  auto scheme = SelectScheme(inputs_, search_, /*max_urls=*/0);
  EXPECT_TRUE(scheme.templates.empty());

  // Above the 0.02 floor the same template is selected.
  search_.evaluated[0].sample_record_hashes = {1, 2, 3};  // 0.03
  scheme = SelectScheme(inputs_, search_, /*max_urls=*/0);
  EXPECT_EQ(scheme.templates.size(), 1u);
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
