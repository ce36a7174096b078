// Tests for informative-template search — the central surfacing algorithm.

#include <gtest/gtest.h>

#include "core/templates.h"
#include "test_support.h"

namespace deepsurf {
namespace core {
namespace {

using testing_support::MakeSite;

/// Template inputs for a used-cars site: make select + zip typed values.
std::vector<TemplateInput> CarInputs(const synthweb::SiteSpec& spec) {
  std::vector<TemplateInput> out;
  for (const auto& in : spec.inputs) {
    if (in.role == synthweb::InputRole::kSelectEq && in.column == "make") {
      TemplateInput ti;
      ti.name = in.html_name;
      for (const auto& v : in.options) {
        if (!v.empty()) ti.choices.push_back(Bindings{{in.html_name, v}});
      }
      out.push_back(std::move(ti));
    }
    if (in.semantic == synthweb::SemanticType::kZipCode) {
      TemplateInput ti;
      ti.name = in.html_name;
      for (const char* zip : {"10001", "90001", "60601", "77001",
                              "85001", "19101"}) {
        ti.choices.push_back(Bindings{{in.html_name, zip}});
      }
      out.push_back(std::move(ti));
    }
  }
  return out;
}

/// Template inputs for a real-estate site: every equality select (state,
/// bedrooms, property type) plus the price range pair compiled into
/// bands, so four content inputs can each be informative.
std::vector<TemplateInput> RealEstateInputs(const synthweb::SiteSpec& spec) {
  std::vector<TemplateInput> out;
  TemplateInput price;
  for (const auto& in : spec.inputs) {
    if (in.role == synthweb::InputRole::kSelectEq) {
      TemplateInput ti;
      ti.name = in.html_name;
      for (const auto& v : in.options) {
        if (!v.empty()) ti.choices.push_back(Bindings{{in.html_name, v}});
      }
      out.push_back(std::move(ti));
    }
    if (in.role == synthweb::InputRole::kRangeMin) {
      price.name = in.html_name + ".." + in.partner;
      for (int lo = 0; lo < 500000; lo += 100000) {
        price.choices.push_back(
            Bindings{{in.html_name, std::to_string(lo)},
                     {in.partner, std::to_string(lo + 100000)}});
      }
    }
  }
  if (!price.choices.empty()) out.push_back(std::move(price));
  return out;
}

/// Adds a presentation (sort) input when the generated form has one.
bool AddSortInput(const synthweb::SiteSpec& spec,
                  std::vector<TemplateInput>* inputs) {
  for (const auto& in : spec.inputs) {
    if (in.role == synthweb::InputRole::kPresentation &&
        in.html_name != "radius") {
      TemplateInput ti;
      ti.name = in.html_name;
      for (const auto& v : in.options) {
        if (!v.empty()) ti.choices.push_back(Bindings{{in.html_name, v}});
      }
      inputs->push_back(std::move(ti));
      return true;
    }
  }
  return false;
}

TEST(TemplateSearchTest, ContentInputsInformative) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 301, 400);
  FormProber prober(&h->web, h->analyzed);
  auto inputs = CarInputs(h->site->spec());
  ASSERT_GE(inputs.size(), 2u);
  auto search = SearchTemplates(&prober, inputs, {});
  ASSERT_TRUE(search.ok());
  // Both dimension-1 templates (make, zip) are informative: different
  // values retrieve different records.
  size_t informative_singletons = 0;
  for (const auto& t : search->evaluated) {
    if (t.inputs.size() == 1 && t.informative) ++informative_singletons;
  }
  EXPECT_EQ(informative_singletons, 2u);
}

TEST(TemplateSearchTest, PresentationInputUninformative) {
  // Find a seed whose form carries a sort input.
  for (uint64_t seed = 300; seed < 340; ++seed) {
    auto h = MakeSite(synthweb::Domain::kUsedCars, seed, 200);
    std::vector<TemplateInput> inputs;
    if (!AddSortInput(h->site->spec(), &inputs)) continue;
    FormProber prober(&h->web, h->analyzed);
    auto search = SearchTemplates(&prober, inputs, {});
    ASSERT_TRUE(search.ok());
    ASSERT_EQ(search->evaluated.size(), 1u);
    // Sorting permutes the page; the order-independent signature is
    // unchanged, so the template is uninformative.
    EXPECT_FALSE(search->evaluated[0].informative);
    return;
  }
  FAIL() << "no generated form carried a sort input in 40 seeds";
}

TEST(TemplateSearchTest, LatticeExtendsOnlyInformativeTemplates) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 307, 400);
  FormProber prober(&h->web, h->analyzed);
  auto inputs = CarInputs(h->site->spec());
  ASSERT_EQ(inputs.size(), 2u);
  auto search = SearchTemplates(&prober, inputs, {});
  ASSERT_TRUE(search.ok());
  bool found_pair = false;
  for (const auto& t : search->evaluated) {
    if (t.inputs.size() == 2) {
      found_pair = true;
      // Canonical order, no duplicates.
      EXPECT_LT(t.inputs[0], t.inputs[1]);
    }
    EXPECT_LE(t.inputs.size(), 2u);
  }
  EXPECT_TRUE(found_pair);
}

TEST(TemplateSearchTest, DimensionCapRespected) {
  auto h = MakeSite(synthweb::Domain::kRealEstate, 311, 1000);
  FormProber prober(&h->web, h->analyzed);
  auto inputs = RealEstateInputs(h->site->spec());
  auto search = SearchTemplates(&prober, inputs, {});
  ASSERT_TRUE(search.ok());
  size_t informative_singletons = 0;
  size_t informative_triples = 0;
  for (const auto& t : search->evaluated) {
    EXPECT_LE(t.inputs.size(), 3u);
    if (!t.informative) continue;
    if (t.inputs.size() == 1) ++informative_singletons;
    if (t.inputs.size() == 3) ++informative_triples;
  }
  // The cap binds: an informative triple has a fourth informative input
  // to extend by, and the search stops at three anyway.
  EXPECT_GE(informative_singletons, 4u);
  EXPECT_GE(informative_triples, 1u);
}

TEST(TemplateSearchTest, RecordsPerPageCollected) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 313, 300);
  FormProber prober(&h->web, h->analyzed);
  auto inputs = CarInputs(h->site->spec());
  auto search = SearchTemplates(&prober, inputs, {});
  ASSERT_TRUE(search.ok());
  for (const auto& t : search->evaluated) {
    if (t.informative) {
      EXPECT_FALSE(t.records_per_page.empty());
      EXPECT_FALSE(t.sample_record_hashes.empty());
    }
  }
}

TEST(TemplateSearchTest, ProbeBudgetBounded) {
  auto h = MakeSite(synthweb::Domain::kUsedCars, 317, 300);
  FormProber prober(&h->web, h->analyzed);
  auto inputs = CarInputs(h->site->spec());
  ASSERT_EQ(inputs.size(), 2u);
  TemplateOptions opts;
  opts.sample_assignments = 5;
  auto search = SearchTemplates(&prober, inputs, opts);
  ASSERT_TRUE(search.ok());
  // 2 singletons + 1 pair, 5 samples each -> <= 15 probes (cache may
  // reduce fetches further).
  EXPECT_LE(search->probes_used, 15u);
}

TEST(ExpandTemplateTest, CardinalityAndExpansion) {
  std::vector<TemplateInput> inputs(2);
  inputs[0].name = "a";
  inputs[1].name = "b";
  for (int i = 0; i < 3; ++i) {
    inputs[0].choices.push_back(
        Bindings{{"a", "a" + std::to_string(i)}});
  }
  for (int i = 0; i < 4; ++i) {
    inputs[1].choices.push_back(
        Bindings{{"b", "b" + std::to_string(i)}});
  }
  EvaluatedTemplate tmpl;
  tmpl.inputs = {0, 1};
  EXPECT_EQ(TemplateCardinality(inputs, tmpl), 12u);
  auto expanded = ExpandTemplate(inputs, tmpl);
  EXPECT_EQ(expanded.size(), 12u);
  // Each assignment binds both inputs.
  for (const auto& assignment : expanded) {
    EXPECT_EQ(assignment.size(), 2u);
  }
  // Cap honoured.
  EXPECT_EQ(ExpandTemplate(inputs, tmpl, 5).size(), 5u);
}

TEST(ExpandTemplateTest, MultiParamChoicesExpandTogether) {
  // A compiled range pair contributes two parameters per choice.
  std::vector<TemplateInput> inputs(1);
  inputs[0].name = "price..range";
  inputs[0].choices.push_back(Bindings{{"min", "0"}, {"max", "10"}});
  inputs[0].choices.push_back(Bindings{{"min", "10"}, {"max", "20"}});
  EvaluatedTemplate tmpl;
  tmpl.inputs = {0};
  auto expanded = ExpandTemplate(inputs, tmpl);
  ASSERT_EQ(expanded.size(), 2u);
  EXPECT_EQ(expanded[0].size(), 2u);  // min and max bound together
}

TEST(ExpandTemplateTest, EmptyChoiceListYieldsNothing) {
  std::vector<TemplateInput> inputs(1);
  inputs[0].name = "empty";
  EvaluatedTemplate tmpl;
  tmpl.inputs = {0};
  EXPECT_EQ(TemplateCardinality(inputs, tmpl), 0u);
  EXPECT_TRUE(ExpandTemplate(inputs, tmpl).empty());
}

}  // namespace
}  // namespace core
}  // namespace deepsurf
