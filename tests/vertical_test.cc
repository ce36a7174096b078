// Tests for the virtual-integration engine.

#include <gtest/gtest.h>

#include "synthweb/vocab.h"
#include "test_support.h"
#include "vertical/mediated_schema.h"
#include "vertical/source.h"
#include "vertical/vertical_engine.h"

namespace deepsurf {
namespace vertical {
namespace {

using testing_support::MakeSite;

TEST(MediatedSchemaTest, BuiltinsCoverAllDomains) {
  EXPECT_EQ(BuiltinSchemas().size(), 10u);
  for (const auto& d : {"usedcars", "realestate", "jobs", "books"}) {
    EXPECT_NE(SchemaForDomain(d), nullptr) << d;
  }
  EXPECT_EQ(SchemaForDomain("nonexistent"), nullptr);
}

TEST(MediatedSchemaTest, SynonymMatching) {
  const MediatedSchema* cars = SchemaForDomain("usedcars");
  ASSERT_NE(cars, nullptr);
  EXPECT_EQ(cars->Match("min_price")->name, "price");
  EXPECT_EQ(cars->Match("zip_code")->name, "zip");
  EXPECT_EQ(cars->Match("search terms")->name, "keywords");
  EXPECT_EQ(cars->Match("unrelated"), nullptr);
  EXPECT_NE(cars->Find("make"), nullptr);
  EXPECT_EQ(cars->Find("bogus"), nullptr);
}

TEST(RegisterSourceTest, ClassifiesUsedCarsForm) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 501, 200);
  auto source = RegisterSource(&h->web, h->page_url, h->form);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source->domain, "usedcars");
  EXPECT_GT(source->classification_score, 0.3);
  EXPECT_FALSE(source->mappings.empty());
  EXPECT_TRUE(source->wrapper.valid());
  EXPECT_FALSE(source->content_summary.empty());
}

TEST(RegisterSourceTest, RangeSidesMapped) {
  auto h = MakeSite(synthweb::Domain::kRealEstate, 503, 200);
  auto source = RegisterSource(&h->web, h->page_url, h->form);
  ASSERT_TRUE(source.ok());
  EXPECT_EQ(source->domain, "realestate");
  EXPECT_NE(source->MappingFor("price", -1), nullptr);
  EXPECT_NE(source->MappingFor("price", +1), nullptr);
}

TEST(RegisterSourceTest, ObfuscatedFormUnclassifiable) {
  // With cryptic input names the schema matcher has nothing to hold on
  // to — the paper's point about needing semantics for VI. Labels also
  // help, so strip them by re-parsing only names.
  auto h = MakeSite(synthweb::Domain::kStoreLocator, 507, 100,
                    /*obfuscate=*/true);
  html::Form stripped = h->form;
  for (auto& field : stripped.fields) field.label.clear();
  auto source = RegisterSource(&h->web, h->page_url, stripped);
  EXPECT_FALSE(source.ok());
}

class EngineTest : public ::testing::Test {
 protected:
  EngineTest() : h_(MakeSite(synthweb::Domain::kUsedCars, 509, 300)) {
    engine_ = std::make_unique<VerticalEngine>(&h_->web);
    auto source = RegisterSource(&h_->web, h_->page_url, h_->form);
    EXPECT_TRUE(source.ok());
    engine_->AddSource(std::move(source).value());
  }

  std::unique_ptr<testing_support::SiteHarness> h_;
  std::unique_ptr<VerticalEngine> engine_;
};

TEST_F(EngineTest, StructuredQueryRetrievesMatchingRecords) {
  auto makes = h_->site->spec().main_table().DistinctValues("make");
  ASSERT_FALSE(makes.empty());
  std::string make = makes[0].ToDisplayString();
  StructuredQuery query;
  query.domain = "usedcars";
  query.constraints.push_back({"make", make, false, 0, 0});
  auto answer = engine_->Answer(query);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->sources_queried, 1u);
  ASSERT_FALSE(answer->records.empty());
  // Top-scored records contain the requested make.
  EXPECT_NE(answer->records[0].record.Joined().find(make),
            std::string::npos);
}

TEST_F(EngineTest, RangeConstraintBindsMinMax) {
  StructuredQuery query;
  query.domain = "usedcars";
  Constraint c;
  c.attribute = "price";
  c.is_range = true;
  c.lo = 2000;
  c.hi = 20000;
  query.constraints.push_back(c);
  auto answer = engine_->Answer(query);
  ASSERT_TRUE(answer.ok());
  EXPECT_GE(answer->requests_made, 1u);
}

TEST_F(EngineTest, WrongDomainRoutesNowhere) {
  StructuredQuery query;
  query.domain = "hotels";
  auto answer = engine_->Answer(query);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->sources_considered, 0u);
  EXPECT_EQ(answer->requests_made, 0u);
  EXPECT_TRUE(answer->records.empty());
}

TEST_F(EngineTest, KeywordQueryWithRecognizableStructure) {
  extract::QueryRecognizer recognizer;
  for (const auto& mk : synthweb::CarMakes()) {
    recognizer.AddValue("make", mk.make);
  }
  auto makes = h_->site->spec().main_table().DistinctValues("make");
  std::string make = makes[0].ToDisplayString();
  auto answer = engine_->AnswerKeywords("used " + make + " for sale",
                                        recognizer);
  ASSERT_TRUE(answer.ok());
  EXPECT_GE(answer->sources_queried, 1u);
}

TEST_F(EngineTest, UnrecognizableKeywordQueryCannotRoute) {
  extract::QueryRecognizer recognizer;  // empty dictionaries
  auto answer = engine_->AnswerKeywords("sigmod innovations award winner",
                                        recognizer);
  EXPECT_TRUE(answer.status().IsNotFound());
}

TEST(EngineRoutingTest, FanOutCappedAcrossManySources) {
  // More same-domain sources than the cap of 8: the engine queries 8.
  net::SimulatedWeb web;
  VerticalEngine engine(&web);
  size_t added = 0;
  for (uint64_t seed = 611; seed < 623; ++seed) {
    Rng rng(seed);
    synthweb::SiteGenOptions gen;
    gen.num_rows = 60;
    gen.force_get = true;
    gen.obfuscate_probability = 0.0;
    auto spec = synthweb::GenerateSite(
        synthweb::Domain::kHotels,
        "hotel-" + std::to_string(seed) + ".example.com", &rng, gen);
    auto site = std::make_shared<synthweb::DeepWebSite>(spec);
    ASSERT_TRUE(web.Register(site).ok());
    auto resp = web.Get(site->FormPageUrl());
    auto dom = html::Parse(resp->body);
    auto forms = html::ExtractForms(*dom);
    ASSERT_EQ(forms.size(), 1u);
    auto page_url = net::Url::Parse(site->FormPageUrl()).value();
    auto source = RegisterSource(&web, page_url, forms[0]);
    if (source.ok()) {
      engine.AddSource(std::move(source).value());
      ++added;
    }
  }
  ASSERT_GE(added, 9u);
  web.ResetTraffic();
  StructuredQuery query;
  query.domain = "hotels";
  query.constraints.push_back({"city", "Seattle", false, 0, 0});
  auto answer = engine.Answer(query);
  ASSERT_TRUE(answer.ok());
  EXPECT_EQ(answer->sources_considered, added);
  EXPECT_EQ(answer->sources_queried, 8u);
  EXPECT_LE(answer->requests_made, 8u);
}

}  // namespace
}  // namespace vertical
}  // namespace deepsurf
