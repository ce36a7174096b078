#include "vertical/source.h"

#include "core/prober.h"
#include "core/ranges.h"
#include "html/parser.h"
#include "index/analyzer.h"
#include "util/strings.h"

namespace deepsurf {
namespace vertical {

const InputMapping* Source::MappingFor(const std::string& attribute,
                                       int range_side) const {
  for (const auto& m : mappings) {
    if (m.attribute == attribute && m.range_side == range_side) return &m;
  }
  return nullptr;
}

namespace {

/// Sample submissions fetched to build the content summary.
constexpr size_t kSampleProbes = 3;
/// Minimum fraction of user inputs mapped for a classification to hold.
constexpr double kMinClassificationScore = 0.34;

/// Scores a schema against a form: fraction of user inputs whose name or
/// label matches some attribute synonym (range affixes stripped first).
double ClassifyAgainst(const MediatedSchema& schema,
                       const core::AnalyzedForm& form,
                       std::vector<InputMapping>* mappings) {
  size_t mapped = 0;
  std::vector<InputMapping> out;
  for (const auto& input : form.inputs) {
    std::string stem;
    int side = core::ClassifyRangeAffix(input.name, &stem);
    std::string probe_name = side == 0 ? input.name : stem;
    const MediatedAttribute* attr =
        schema.Match(probe_name + " " + input.label);
    if (attr == nullptr) continue;
    ++mapped;
    InputMapping m;
    m.input_name = input.name;
    m.attribute = attr->name;
    m.range_side = attr->is_numeric ? side : 0;
    m.is_select = input.is_select;
    m.select_values = input.select_values;
    out.push_back(std::move(m));
  }
  if (form.inputs.empty()) return 0.0;
  *mappings = std::move(out);
  return static_cast<double>(mapped) /
         static_cast<double>(form.inputs.size());
}

}  // namespace

Result<Source> RegisterSource(net::SimulatedWeb* web,
                              const net::Url& page_url,
                              const html::Form& form) {
  Source source;
  DEEPSURF_ASSIGN_OR_RETURN(source.form,
                            core::AnalyzeForm(page_url, form));
  // Pick the best-scoring schema.
  const MediatedSchema* best = nullptr;
  double best_score = 0.0;
  std::vector<InputMapping> best_mappings;
  for (const auto& schema : BuiltinSchemas()) {
    std::vector<InputMapping> mappings;
    double score = ClassifyAgainst(schema, source.form, &mappings);
    if (score > best_score) {
      best = &schema;
      best_score = score;
      best_mappings = std::move(mappings);
    }
  }
  if (best == nullptr || best_score < kMinClassificationScore) {
    return Status::NotFound("form matches no mediated schema well enough");
  }
  source.domain = best->domain;
  source.classification_score = best_score;
  source.mappings = std::move(best_mappings);

  // Sample result pages: wrapper induction + content summary. Submissions
  // bind one mapped select at a time (cheap, usually non-empty).
  core::FormProber prober(web, source.form, /*budget=*/0);
  size_t sampled = 0;
  for (const auto& m : source.mappings) {
    if (sampled >= kSampleProbes) break;
    if (!m.is_select) continue;
    for (const auto& v : m.select_values) {
      if (v.empty()) continue;
      auto probe = prober.Probe({{m.input_name, v}});
      if (probe.ok() && probe->HasResults()) {
        for (const auto& [term, tf] : probe->TermFrequencies()) {
          source.content_summary[term] += tf;
        }
        ++sampled;
      }
      break;  // one option per mapped select
    }
  }
  if (sampled == 0) {
    // Fall back to the unconstrained submission.
    auto probe = prober.Probe({});
    if (probe.ok() && probe->HasResults()) {
      for (const auto& [term, tf] : probe->TermFrequencies()) {
        source.content_summary[term] += tf;
      }
    }
  }
  // Induce the wrapper from one sampled page body.
  if (!source.form.is_post) {
    auto resp = web->Get(core::SubmissionUrl(source.form, {}));
    if (resp.ok() && resp->status_code == 200) {
      auto dom = html::Parse(resp->body);
      source.wrapper = extract::InducedWrapper::Induce(*dom);
    }
  }
  source.registration_probes = prober.fetches();
  return source;
}

}  // namespace vertical
}  // namespace deepsurf
