// Tests for database-selection detection (paper §4.2).

#include <gtest/gtest.h>

#include "core/dbselect.h"
#include "test_support.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

struct MediaInputs {
  std::string selector;
  std::string box;
};

MediaInputs FindInputs(const synthweb::SiteSpec& spec) {
  MediaInputs out;
  for (const auto& in : spec.inputs) {
    if (in.role == synthweb::InputRole::kDbSelector) {
      out.selector = in.html_name;
    }
    if (in.role == synthweb::InputRole::kKeywordSearch) {
      out.box = in.html_name;
    }
  }
  return out;
}

TEST(DbSelectTest, DetectsMediaLibrarySelector) {
  auto h = MakeSite(synthweb::Domain::kMediaLibrary, 211, 240);
  auto inputs = FindInputs(h->site->spec());
  ASSERT_FALSE(inputs.selector.empty());
  ASSERT_FALSE(inputs.box.empty());
  FormProber prober(&h->web, h->analyzed);
  auto verdict = DetectDbSelector(&prober, inputs.selector, inputs.box);
  ASSERT_TRUE(verdict.ok());
  EXPECT_TRUE(verdict->is_db_selector);
  EXPECT_GT(verdict->mean_jsd_bits, 0.5);
}

TEST(DbSelectTest, OrdinarySelectNotFlagged) {
  // A cuisine select partitions one table; its options share the city /
  // prose vocabulary, so JSD stays below the threshold.
  auto h = MakeSite(synthweb::Domain::kRestaurants, 223, 400);
  std::string cuisine;
  std::string box;
  for (const auto& in : h->site->spec().inputs) {
    if (in.role == synthweb::InputRole::kSelectEq) cuisine = in.html_name;
    if (in.role == synthweb::InputRole::kKeywordSearch) box = in.html_name;
  }
  ASSERT_FALSE(cuisine.empty());
  if (box.empty()) box = "q";  // detection does not require the box to exist
  FormProber prober(&h->web, h->analyzed);
  auto verdict = DetectDbSelector(&prober, cuisine, box);
  ASSERT_TRUE(verdict.ok());
  EXPECT_LT(verdict->mean_jsd_bits, 0.55);
  EXPECT_FALSE(verdict->is_db_selector);
}

TEST(DbSelectTest, FieldEqualitySelectsRarelyFlaggedAtSurfacingScale) {
  // Sites of 20-200 rows, the sizes a surfacing crawl meets, each probed
  // through its own keyword box. A category, subject, department or
  // cuisine select shapes the rest of its records, so its options'
  // vocabularies diverge like separate databases; the unbound keyword
  // box must tell them apart. Media libraries of the same sizes keep
  // E8's recall bar.
  size_t ordinary = 0;
  size_t false_alarms = 0;
  size_t selectors = 0;
  size_t detected = 0;
  for (synthweb::Domain domain :
       {synthweb::Domain::kJobs, synthweb::Domain::kBooks,
        synthweb::Domain::kGovRecords, synthweb::Domain::kRestaurants,
        synthweb::Domain::kMediaLibrary}) {
    for (uint64_t rank = 0; rank < 10; ++rank) {
      auto h = MakeSite(domain, 7000 + 31 * rank, 20 + 180 / (rank + 1));
      std::string box = FindInputs(h->site->spec()).box;
      if (box.empty()) continue;  // restaurants' box is optional
      FormProber prober(&h->web, h->analyzed);
      for (const auto& in : h->site->spec().inputs) {
        if (!in.is_select) continue;
        auto verdict = DetectDbSelector(&prober, in.html_name, box);
        ASSERT_TRUE(verdict.ok());
        if (in.role == synthweb::InputRole::kDbSelector) {
          ++selectors;
          if (verdict->is_db_selector) ++detected;
        } else {
          ++ordinary;
          if (verdict->is_db_selector) ++false_alarms;
        }
      }
    }
  }
  EXPECT_GE(ordinary, 40u);
  EXPECT_LE(false_alarms * 20, ordinary)
      << false_alarms << " of " << ordinary << " flagged";
  EXPECT_EQ(selectors, 10u);
  EXPECT_GE(detected * 2, selectors);
}

TEST(DbSelectTest, NonSelectInputRejected) {
  auto h = MakeSite(synthweb::Domain::kMediaLibrary, 227, 100);
  auto inputs = FindInputs(h->site->spec());
  FormProber prober(&h->web, h->analyzed);
  auto verdict = DetectDbSelector(&prober, inputs.box, inputs.box);
  EXPECT_TRUE(verdict.status().IsInvalidArgument());
}

TEST(DbSelectTest, MiningProducesPerOptionKeywords) {
  auto h = MakeSite(synthweb::Domain::kMediaLibrary, 229, 240);
  auto inputs = FindInputs(h->site->spec());
  FormProber prober(&h->web, h->analyzed);
  auto verdict = MineDbSelector(&prober, inputs.selector, inputs.box,
                                /*seed_words=*/{}, nullptr);
  ASSERT_TRUE(verdict.ok());
  ASSERT_TRUE(verdict->is_db_selector);
  // One keyword set per (non-empty) option.
  EXPECT_EQ(verdict->keywords_by_option.size(), 4u);
  // Per-option keywords differ substantially: "microsoft"-style software
  // words are not the movie keywords. (Occasional shared tokens — years,
  // template words — are tolerated.)
  ASSERT_TRUE(verdict->keywords_by_option.count("software"));
  ASSERT_TRUE(verdict->keywords_by_option.count("movies"));
  const auto& sw = verdict->keywords_by_option.at("software");
  const auto& mv = verdict->keywords_by_option.at("movies");
  ASSERT_FALSE(sw.empty());
  ASSERT_FALSE(mv.empty());
  size_t shared = 0;
  for (const auto& kw : sw) {
    for (const auto& m : mv) {
      if (kw == m) ++shared;
    }
  }
  EXPECT_LT(shared * 2, std::min(sw.size(), mv.size()) + 1);
}

TEST(DbSelectTest, MinedKeywordsRetrieveRecords) {
  auto h = MakeSite(synthweb::Domain::kMediaLibrary, 233, 240);
  auto inputs = FindInputs(h->site->spec());
  FormProber prober(&h->web, h->analyzed);
  auto verdict = MineDbSelector(&prober, inputs.selector, inputs.box, {},
                                nullptr);
  ASSERT_TRUE(verdict.ok());
  for (const auto& [option, keywords] : verdict->keywords_by_option) {
    for (const auto& kw : keywords) {
      auto probe = prober.Probe({{inputs.selector, option},
                                 {inputs.box, kw}});
      ASSERT_TRUE(probe.ok());
      EXPECT_TRUE(probe->HasResults()) << option << "/" << kw;
    }
  }
}

TEST(DbSelectTest, NoMiningWhenNotDetected) {
  auto h = MakeSite(synthweb::Domain::kRestaurants, 239, 300);
  std::string cuisine;
  for (const auto& in : h->site->spec().inputs) {
    if (in.role == synthweb::InputRole::kSelectEq) cuisine = in.html_name;
  }
  FormProber prober(&h->web, h->analyzed);
  auto verdict = MineDbSelector(&prober, cuisine, "q", {}, nullptr);
  ASSERT_TRUE(verdict.ok());
  EXPECT_FALSE(verdict->is_db_selector);
  EXPECT_TRUE(verdict->keywords_by_option.empty());
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
