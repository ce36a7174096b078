// Tests for typed-input recognition (paper §4.1).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>

#include "core/pipeline.h"
#include "core/typed.h"
#include "net/fetcher.h"
#include "test_support.h"
#include "util/strings.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

/// The reference's own copy of the recognizer's thresholds, so it does
/// not read them from the code it checks.
constexpr size_t kRefSamplesPerType = 6;
constexpr size_t kRefGarbageProbes = 3;
constexpr double kRefMinHitRate = 0.34;
constexpr double kRefMargin = 0.25;
constexpr double kRefSearchBoxMinHitRate = 0.4;

/// Recognition as it was before each test became sequential: every
/// planned sample is probed. The reference the sequential test must
/// agree with; budget exhaustion is not modeled (callers probe without
/// a budget).
TypeVerdict ExhaustiveReference(FormProber* prober,
                                const std::string& input_name,
                                const std::string& label,
                                const std::vector<std::string>& context_words) {
  TypeVerdict verdict;
  auto hit_rate = [&](const std::vector<std::string>& values, size_t limit) {
    size_t tried = 0;
    size_t hits = 0;
    for (const auto& v : values) {
      if (tried >= limit) break;
      ++tried;
      ++verdict.probes_used;
      auto result = prober->Probe({{input_name, v}});
      if (result.ok() && result->HasResults()) ++hits;
    }
    return tried == 0 ? 0.0
                      : static_cast<double>(hits) / static_cast<double>(tried);
  };
  static const std::vector<std::string> kGarbage = {
      "xqzkvwpt", "zzqy1742", "vkwqjxx", "qqqzzzv", "xjqv9wz"};
  verdict.garbage_rate = hit_rate(kGarbage, kRefGarbageProbes);
  std::vector<std::string> prose_context;
  for (const auto& w : context_words) {
    if (!strings::IsDigits(w)) prose_context.push_back(w);
  }
  double search_rate = hit_rate(prose_context, kRefSamplesPerType);
  if (search_rate >= kRefSearchBoxMinHitRate &&
      search_rate >= verdict.garbage_rate + kRefMargin) {
    verdict.type = DataType::kSearchBox;
    verdict.hit_rate = search_rate;
    return verdict;
  }
  std::vector<DataType> order = TypedCandidates();
  std::stable_sort(order.begin(), order.end(),
                   [&](DataType a, DataType b) {
                     return NameHint(a, input_name, label) >
                            NameHint(b, input_name, label);
                   });
  DataType best = DataType::kUnknown;
  double best_rate = 0.0;
  for (DataType type : order) {
    double rate = hit_rate(SampleValues(type), kRefSamplesPerType);
    if (rate >= kRefMinHitRate && rate >= verdict.garbage_rate + kRefMargin &&
        rate > best_rate) {
      best = type;
      best_rate = rate;
      if (rate >= 0.99) break;
    }
  }
  if (best == DataType::kZipCode) {
    verdict.probes_used += 2;
    auto zero = prober->Probe({{input_name, "0"}});
    auto huge = prober->Probe({{input_name, "999999999"}});
    if ((zero.ok() && zero->HasResults()) ||
        (huge.ok() && huge->HasResults())) {
      best = DataType::kPrice;
    }
  }
  verdict.type = best;
  verdict.hit_rate =
      best != DataType::kUnknown ? best_rate : std::max(best_rate, search_rate);
  return verdict;
}

TEST(TypedDictTest, CandidatesAndSamples) {
  EXPECT_EQ(TypedCandidates().size(), 6u);
  for (DataType t : TypedCandidates()) {
    EXPECT_FALSE(SampleValues(t).empty()) << DataTypeToString(t);
  }
  EXPECT_TRUE(SampleValues(DataType::kUnknown).empty());
  EXPECT_TRUE(SampleValues(DataType::kSearchBox).empty());
}

TEST(TypedDictTest, Names) {
  EXPECT_STREQ(DataTypeToString(DataType::kZipCode), "zipcode");
  EXPECT_STREQ(DataTypeToString(DataType::kSearchBox), "searchbox");
  EXPECT_STREQ(DataTypeToString(DataType::kPrice), "price");
}

TEST(NameHintTest, MatchesNamesAndLabels) {
  EXPECT_TRUE(NameHint(DataType::kZipCode, "zip_code", ""));
  EXPECT_TRUE(NameHint(DataType::kZipCode, "f3", "Enter Zip Code"));
  EXPECT_TRUE(NameHint(DataType::kCity, "city", ""));
  EXPECT_TRUE(NameHint(DataType::kPrice, "max_price", ""));
  EXPECT_TRUE(NameHint(DataType::kDate, "posted", ""));
  EXPECT_FALSE(NameHint(DataType::kZipCode, "q", "Keywords"));
}

class TypedRecognitionTest : public ::testing::Test {
 protected:
  TypeVerdict Recognize(testing_support::SiteHarness* h,
                        const std::string& input_name,
                        const std::string& label,
                        const std::vector<std::string>& context = {}) {
    FormProber prober(&h->web, h->analyzed);
    auto verdict = RecognizeType(&prober, input_name, label, context);
    EXPECT_TRUE(verdict.ok());
    return *verdict;
  }
};

TEST_F(TypedRecognitionTest, ZipInputRecognizedOnStoreLocator) {
  auto h = MakeSite(synthweb::Domain::kStoreLocator, 41, 400);
  // Find the ground-truth zip input.
  std::string zip_name;
  for (const auto& in : h->site->spec().inputs) {
    if (in.semantic == synthweb::SemanticType::kZipCode) {
      zip_name = in.html_name;
    }
  }
  ASSERT_FALSE(zip_name.empty());
  TypeVerdict v = Recognize(h.get(), zip_name, "Enter Zip Code");
  EXPECT_EQ(v.type, DataType::kZipCode);
  EXPECT_GT(v.hit_rate, 0.3);
  EXPECT_LT(v.garbage_rate, v.hit_rate);
}

TEST_F(TypedRecognitionTest, ZipRecognizedEvenWithObfuscatedName) {
  // Probes decide, not names: "f0"-style inputs must still be typed.
  auto h = MakeSite(synthweb::Domain::kStoreLocator, 43, 400,
                    /*obfuscate=*/true);
  std::string zip_name;
  for (const auto& in : h->site->spec().inputs) {
    if (in.semantic == synthweb::SemanticType::kZipCode) {
      zip_name = in.html_name;
    }
  }
  ASSERT_FALSE(zip_name.empty());
  EXPECT_EQ(zip_name[0], 'f');  // obfuscated
  TypeVerdict v = Recognize(h.get(), zip_name, "");
  EXPECT_EQ(v.type, DataType::kZipCode);
}

TEST_F(TypedRecognitionTest, CityInputRecognizedOnHotels) {
  auto h = MakeSite(synthweb::Domain::kHotels, 47, 500);
  std::string city_name;
  for (const auto& in : h->site->spec().inputs) {
    if (in.semantic == synthweb::SemanticType::kCity) {
      city_name = in.html_name;
    }
  }
  ASSERT_FALSE(city_name.empty());
  TypeVerdict v = Recognize(h.get(), city_name, "City");
  EXPECT_EQ(v.type, DataType::kCity);
}

TEST_F(TypedRecognitionTest, SearchBoxRecognizedWithContextWords) {
  auto h = MakeSite(synthweb::Domain::kBooks, 53, 300);
  std::string box_name;
  for (const auto& in : h->site->spec().inputs) {
    if (in.role == synthweb::InputRole::kKeywordSearch) {
      box_name = in.html_name;
    }
  }
  ASSERT_FALSE(box_name.empty());
  // Context words: subjects that definitely appear in book records.
  TypeVerdict v = Recognize(h.get(), box_name, "Search",
                            {"history", "science", "travel", "poetry",
                             "cooking", "biography"});
  EXPECT_EQ(v.type, DataType::kSearchBox);
}

TEST_F(TypedRecognitionTest, GarbageOnlyInputStaysUnknown) {
  // The used-car "model" box accepts only model names; none of the typed
  // dictionaries nor garbage should pass.
  auto h = MakeSite(synthweb::Domain::kUsedCars, 59, 200);
  std::string model_name;
  for (const auto& in : h->site->spec().inputs) {
    if (in.semantic == synthweb::SemanticType::kGeneric) {
      model_name = in.html_name;
    }
  }
  ASSERT_FALSE(model_name.empty());
  TypeVerdict v = Recognize(h.get(), model_name, "Model");
  EXPECT_EQ(v.type, DataType::kUnknown);
}

TEST_F(TypedRecognitionTest, PriceRecognizedOnRangeInput) {
  // Text min-price inputs behave as >= filters; price samples hit.
  auto h = MakeSite(synthweb::Domain::kRealEstate, 61, 400);
  std::string price_name;
  for (const auto& in : h->site->spec().inputs) {
    if (in.semantic == synthweb::SemanticType::kPrice && !in.is_select &&
        in.role == synthweb::InputRole::kRangeMin) {
      price_name = in.html_name;
    }
  }
  ASSERT_FALSE(price_name.empty());
  TypeVerdict v = Recognize(h.get(), price_name, "Min Price");
  EXPECT_EQ(v.type, DataType::kPrice);
}

TEST_F(TypedRecognitionTest, BudgetExhaustionSurfacesAsError) {
  auto h = MakeSite(synthweb::Domain::kStoreLocator, 67, 100);
  FormProber prober(&h->web, h->analyzed, /*budget=*/1);
  auto verdict = RecognizeType(&prober, h->analyzed.inputs[0].name, "", {});
  EXPECT_FALSE(verdict.ok());
  EXPECT_TRUE(verdict.status().IsResourceExhausted());
}

TEST(TypedSequentialTest, AgreesWithExhaustiveProbingOnEveryDomain) {
  // Every text input of 30 sites (each domain at 20-200 rows, names
  // plain and obfuscated), tested with the site's own context words (as
  // AnalyzeInputs derives them with no seed index) and with none.
  size_t inputs = 0;
  size_t sequential_probes = 0;
  size_t reference_probes = 0;
  std::map<DataType, size_t> types;
  for (synthweb::Domain domain : synthweb::AllDomains()) {
    for (uint64_t rank = 0; rank < 3; ++rank) {
      auto h = MakeSite(domain, 9000 + 17 * rank, 20 + 180 / (rank + 1),
                        /*obfuscate=*/rank == 1);
      net::ProbeScheduler scheduler(&h->web);
      SurfacerOptions no_typing;
      no_typing.enable_typed = false;
      auto ctx = AnalyzeInputs(&scheduler, nullptr, no_typing, h->page_url,
                               h->form, h->scripts);
      ASSERT_TRUE(ctx.ok());
      for (const auto& input : h->analyzed.inputs) {
        if (input.is_select) continue;
        for (const auto& context :
             {ctx->context_words, std::vector<std::string>{}}) {
          SCOPED_TRACE(std::string(synthweb::DomainToString(domain)) + " " +
                       input.name);
          FormProber sequential_prober(&h->web, h->analyzed);
          auto verdict = RecognizeType(&sequential_prober, input.name,
                                       input.label, context);
          ASSERT_TRUE(verdict.ok());
          FormProber reference_prober(&h->web, h->analyzed);
          TypeVerdict reference = ExhaustiveReference(
              &reference_prober, input.name, input.label, context);
          EXPECT_EQ(verdict->type, reference.type);
          EXPECT_LE(verdict->probes_used, reference.probes_used);
          EXPECT_EQ(verdict->garbage_rate, reference.garbage_rate);
          if (reference.type != DataType::kUnknown) {
            EXPECT_EQ(verdict->hit_rate, reference.hit_rate);
          }
          ++inputs;
          ++types[reference.type];
          sequential_probes += verdict->probes_used;
          reference_probes += reference.probes_used;
        }
      }
    }
  }
  // The corpus exercises search boxes, typed boxes and unknown boxes,
  // and the sequential test saves probes on them.
  EXPECT_GT(inputs, 100u);
  EXPECT_GT(types[DataType::kSearchBox], 0u);
  EXPECT_GT(types[DataType::kUnknown], 0u);
  EXPECT_GT(types[DataType::kZipCode] + types[DataType::kCity] +
                types[DataType::kDate] + types[DataType::kPrice],
            0u);
  EXPECT_LT(sequential_probes, reference_probes);
}

TEST_F(TypedRecognitionTest, ProbeCountsReported) {
  auto h = MakeSite(synthweb::Domain::kStoreLocator, 71, 300);
  FormProber prober(&h->web, h->analyzed);
  std::string zip_name;
  for (const auto& in : h->site->spec().inputs) {
    if (in.semantic == synthweb::SemanticType::kZipCode) {
      zip_name = in.html_name;
    }
  }
  auto verdict = RecognizeType(&prober, zip_name, "Zip", {});
  ASSERT_TRUE(verdict.ok());
  EXPECT_GT(verdict->probes_used, 0u);
  EXPECT_LE(verdict->probes_used, 60u);  // light analysis load
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
