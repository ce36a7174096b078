// Tests for range-pair detection and band compilation (paper §4.2).

#include <gtest/gtest.h>

#include "core/ranges.h"
#include "test_support.h"
#include "util/strings.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

TEST(RangeAffixTest, RecognizesAllSpellings) {
  std::string stem;
  EXPECT_EQ(ClassifyRangeAffix("min_price", &stem), -1);
  EXPECT_EQ(stem, "price");
  EXPECT_EQ(ClassifyRangeAffix("max_price", &stem), +1);
  EXPECT_EQ(ClassifyRangeAffix("price_from", &stem), -1);
  EXPECT_EQ(stem, "price");
  EXPECT_EQ(ClassifyRangeAffix("price_to", &stem), +1);
  EXPECT_EQ(ClassifyRangeAffix("minprice", &stem), -1);
  EXPECT_EQ(ClassifyRangeAffix("maxprice", &stem), +1);
  EXPECT_EQ(ClassifyRangeAffix("price_low", &stem), -1);
  EXPECT_EQ(ClassifyRangeAffix("price_high", &stem), +1);
  EXPECT_EQ(ClassifyRangeAffix("pricemin", &stem), -1);
  EXPECT_EQ(ClassifyRangeAffix("pricemax", &stem), +1);
  EXPECT_EQ(ClassifyRangeAffix("salary_from", &stem), -1);
  EXPECT_EQ(stem, "salary");
}

TEST(RangeAffixTest, NonRangeNamesRejected) {
  std::string stem;
  EXPECT_EQ(ClassifyRangeAffix("price", &stem), 0);
  EXPECT_EQ(ClassifyRangeAffix("q", &stem), 0);
  EXPECT_EQ(ClassifyRangeAffix("make", &stem), 0);
  EXPECT_EQ(ClassifyRangeAffix("min", &stem), 0);  // empty stem
}

/// Numeric seeds matching the synthetic sites' value spaces.
std::vector<std::pair<std::string, std::vector<double>>> PriceSeeds(
    const synthweb::SiteSpec& spec) {
  std::vector<std::pair<std::string, std::vector<double>>> out;
  for (const auto& in : spec.inputs) {
    if (!in.is_select &&
        (in.role == synthweb::InputRole::kRangeMin ||
         in.role == synthweb::InputRole::kRangeMax)) {
      out.emplace_back(in.html_name,
                       std::vector<double>{500, 2000, 8000, 30000, 120000,
                                           500000});
    }
  }
  return out;
}

TEST(RangeDetectTest, ConfirmsNamedTextPair) {
  auto h = MakeSite(synthweb::Domain::kRealEstate, 83, 300);
  FormProber prober(&h->web, h->analyzed);
  auto ranges = DetectRanges(&prober, PriceSeeds(h->site->spec()));
  ASSERT_TRUE(ranges.ok());
  // The real-estate form has exactly one (price) text range pair.
  size_t confirmed = 0;
  for (const auto& pair : *ranges) {
    if (pair.confirmed) {
      ++confirmed;
      EXPECT_FALSE(pair.bands.empty());
      // Ground truth: the pair matches the site spec.
      auto truth = h->site->spec().RangePairs();
      bool matches_truth = false;
      for (const auto& [lo, hi] : truth) {
        if (lo == pair.min_input && hi == pair.max_input) {
          matches_truth = true;
        }
      }
      EXPECT_TRUE(matches_truth)
          << pair.min_input << " / " << pair.max_input;
    }
  }
  EXPECT_GE(confirmed, 1u);
}

TEST(RangeDetectTest, ConfirmsSelectPairsOnUsedCars) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 89, 300);
  FormProber prober(&h->web, h->analyzed);
  auto ranges = DetectRanges(&prober, PriceSeeds(h->site->spec()));
  ASSERT_TRUE(ranges.ok());
  // Used cars has a year select pair and a price pair (select or text).
  size_t confirmed = 0;
  for (const auto& pair : *ranges) {
    if (pair.confirmed) ++confirmed;
  }
  EXPECT_GE(confirmed, 2u);
}

TEST(RangeDetectTest, BandsArePlausible) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 97, 300);
  FormProber prober(&h->web, h->analyzed);
  auto ranges = DetectRanges(&prober, PriceSeeds(h->site->spec()));
  ASSERT_TRUE(ranges.ok());
  for (const auto& pair : *ranges) {
    if (!pair.confirmed) continue;
    EXPECT_LE(pair.bands.size(), 10u);
    // Bands ascend and are contiguous.
    for (size_t i = 0; i < pair.bands.size(); ++i) {
      double lo = *strings::ParseDouble(pair.bands[i].first);
      double hi = *strings::ParseDouble(pair.bands[i].second);
      EXPECT_LT(lo, hi);
      if (i > 0) {
        EXPECT_DOUBLE_EQ(*strings::ParseDouble(pair.bands[i - 1].second),
                         lo);
      }
    }
  }
}

TEST(RangeDetectTest, ObfuscatedSelectPairFoundByOptionHeuristic) {
  // With obfuscated names the year select pair is still detected because
  // the two adjacent selects carry identical numeric option lists.
  auto h = MakeSite(synthweb::Domain::kUsedCars, 101, 300,
                    /*obfuscate=*/true);
  FormProber prober(&h->web, h->analyzed);
  auto ranges = DetectRanges(&prober, {});
  ASSERT_TRUE(ranges.ok());
  size_t confirmed = 0;
  for (const auto& pair : *ranges) {
    if (pair.confirmed) {
      ++confirmed;
      EXPECT_FALSE(pair.from_names);
    }
  }
  EXPECT_GE(confirmed, 1u);
}

TEST(RangeDetectTest, SwappedSidesCorrected) {
  // Feed the detector a candidate whose min/max naming is misleading by
  // probing a jobs salary pair with "from"/"to" spellings — the detector
  // must confirm the true orientation either way.
  auto h = MakeSite(synthweb::Domain::kJobs, 103, 300);
  FormProber prober(&h->web, h->analyzed);
  std::vector<std::pair<std::string, std::vector<double>>> seeds;
  for (const auto& in : h->site->spec().inputs) {
    if (in.role == synthweb::InputRole::kRangeMin ||
        in.role == synthweb::InputRole::kRangeMax) {
      seeds.emplace_back(in.html_name,
                         std::vector<double>{20000, 50000, 90000, 140000});
    }
  }
  auto ranges = DetectRanges(&prober, seeds);
  ASSERT_TRUE(ranges.ok());
  for (const auto& pair : *ranges) {
    if (!pair.confirmed) continue;
    // Confirmed orientation must match ground truth.
    const auto* min_in = h->site->spec().FindInput(pair.min_input);
    ASSERT_NE(min_in, nullptr);
    EXPECT_EQ(min_in->role, synthweb::InputRole::kRangeMin);
  }
}

TEST(RangeDetectTest, NoSeedsNoTextConfirmation) {
  auto h = MakeSite(synthweb::Domain::kRealEstate, 107, 200);
  FormProber prober(&h->web, h->analyzed);
  auto ranges = DetectRanges(&prober, {});
  ASSERT_TRUE(ranges.ok());
  // Without numeric seeds the text pair cannot be confirmed.
  for (const auto& pair : *ranges) {
    const auto* min_in = h->site->spec().FindInput(pair.min_input);
    if (min_in != nullptr && !min_in->is_select) {
      EXPECT_FALSE(pair.confirmed);
    }
  }
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
