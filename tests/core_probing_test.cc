// Tests for iterative probing (search-box keyword selection).

#include <gtest/gtest.h>

#include "core/probing.h"
#include "test_support.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

/// The book-catalog search box, with subject words as seeds.
class ProbingTest : public ::testing::Test {
 protected:
  ProbingTest() : h_(MakeSite(synthweb::Domain::kBooks, 73, 300)) {
    for (const auto& in : h_->site->spec().inputs) {
      if (in.role == synthweb::InputRole::kKeywordSearch) {
        box_ = in.html_name;
      }
    }
    EXPECT_FALSE(box_.empty());
  }

  std::vector<std::string> Seeds() {
    return {"history", "science", "travel", "poetry", "cooking",
            "biography", "philosophy", "astronomy"};
  }

  std::unique_ptr<testing_support::SiteHarness> h_;
  std::string box_;
};

TEST_F(ProbingTest, SelectsProductiveKeywords) {
  FormProber prober(&h_->web, h_->analyzed);
  auto result = IterativeProbe(&prober, box_, Seeds(), nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->selected.empty());
  EXPECT_GT(result->distinct_records, 0u);
  // Every selected keyword must have produced records.
  for (const auto& kw : result->selected) {
    bool found = false;
    for (const auto& p : result->probed) {
      if (p.keyword == kw) {
        found = true;
        EXPECT_GT(p.record_count, 0u) << kw;
      }
    }
    EXPECT_TRUE(found) << kw;
  }
}

TEST_F(ProbingTest, MiningDiscoversNewKeywords) {
  FormProber prober(&h_->web, h_->analyzed);
  auto result = IterativeProbe(&prober, box_, Seeds(), nullptr);
  ASSERT_TRUE(result.ok());
  // More keywords probed than seeds (all eight fit under the seed count):
  // mining found candidates on result pages.
  ASSERT_LE(Seeds().size(), kSeedKeywordCount);
  EXPECT_GT(result->probed.size(), Seeds().size());
}

TEST_F(ProbingTest, GreedySelectionOrderedByMarginalGain) {
  FormProber prober(&h_->web, h_->analyzed);
  auto result = IterativeProbe(&prober, box_, Seeds(), nullptr);
  ASSERT_TRUE(result.ok());
  ASSERT_GE(result->selected.size(), 2u);
  // The first selected keyword covers at least as many records as any
  // other single probed keyword (greedy property).
  size_t first_count = 0;
  size_t best_count = 0;
  for (const auto& p : result->probed) {
    if (p.keyword == result->selected[0]) first_count = p.record_count;
    best_count = std::max(best_count, p.record_count);
  }
  EXPECT_EQ(first_count, best_count);
}

TEST_F(ProbingTest, FinalCountCapRespected) {
  FormProber prober(&h_->web, h_->analyzed);
  ProbingOptions opts;
  opts.final_count = 3;
  auto result = IterativeProbe(&prober, box_, Seeds(), nullptr, opts);
  ASSERT_TRUE(result.ok());
  EXPECT_LE(result->selected.size(), 3u);
}

TEST_F(ProbingTest, DfFilterDropsGenericCandidates) {
  FormProber prober(&h_->web, h_->analyzed);
  // Every candidate is in all indexed docs: far above the df cap.
  auto df = [](const std::string&) { return 1.0; };
  auto result = IterativeProbe(&prober, box_, Seeds(), df);
  ASSERT_TRUE(result.ok());
  // No mining happens: only seeds are ever probed.
  EXPECT_LE(result->probed.size(), Seeds().size());
}

TEST_F(ProbingTest, FallbackSeedsWhenNoneGiven) {
  FormProber prober(&h_->web, h_->analyzed);
  auto result = IterativeProbe(&prober, box_, {}, nullptr);
  ASSERT_TRUE(result.ok());
  EXPECT_FALSE(result->probed.empty());
}

TEST_F(ProbingTest, BudgetExhaustionPropagates) {
  FormProber prober(&h_->web, h_->analyzed, /*budget=*/2);
  auto result = IterativeProbe(&prober, box_, Seeds(), nullptr);
  EXPECT_TRUE(result.status().IsResourceExhausted());
}

TEST_F(ProbingTest, ContextBindingsPinned) {
  // Probing under a context binding issues URLs containing the context.
  FormProber prober(&h_->web, h_->analyzed);
  ProbingOptions opts;
  opts.rounds = 0;
  auto result = IterativeProbe(&prober, box_, Seeds(), nullptr, opts,
                               {{"subject", "history"}});
  ASSERT_TRUE(result.ok());
  // All probes went through; the prober cached URLs with both params.
  EXPECT_GT(prober.fetches(), 0u);
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
