#include "vertical/vertical_engine.h"

#include <algorithm>
#include <set>

#include "html/parser.h"
#include "index/analyzer.h"
#include "util/strings.h"

namespace deepsurf {
namespace vertical {

VerticalEngine::VerticalEngine(net::SimulatedWeb* web) : web_(web) {}

void VerticalEngine::AddSource(Source source) {
  sources_.push_back(std::move(source));
}

namespace {

/// Sources queried per structured query, at most.
constexpr size_t kMaxSourcesPerQuery = 8;
/// Records kept per answer, at most.
constexpr size_t kMaxRecords = 50;
/// A source must map this fraction of the query's constraints to be
/// routed to.
constexpr double kMinConstraintCoverage = 0.5;

/// Picks the select option equal to `value` case-insensitively, or for
/// numeric selects the closest option >= (`side` < 0) / <= (`side` > 0)
/// the requested bound. Empty when no usable option exists.
std::string PickOption(const InputMapping& mapping, const std::string& value,
                       int side, double bound) {
  if (side == 0) {
    for (const auto& opt : mapping.select_values) {
      if (strings::EqualsIgnoreCase(opt, value)) return opt;
    }
    return "";
  }
  std::string best;
  double best_delta = 0.0;
  for (const auto& opt : mapping.select_values) {
    auto parsed = strings::ParseDouble(opt);
    if (!parsed.ok()) continue;
    double delta = side < 0 ? bound - *parsed : *parsed - bound;
    if (delta < 0) continue;  // option on the wrong side of the bound
    if (best.empty() || delta < best_delta) {
      best = opt;
      best_delta = delta;
    }
  }
  return best;
}

}  // namespace

bool VerticalEngine::Reformulate(const Source& source,
                                 const StructuredQuery& query,
                                 core::Bindings* bindings) const {
  size_t expressed = 0;
  for (const auto& c : query.constraints) {
    if (c.is_range) {
      const InputMapping* lo_m = source.MappingFor(c.attribute, -1);
      const InputMapping* hi_m = source.MappingFor(c.attribute, +1);
      bool bound_any = false;
      if (lo_m != nullptr) {
        std::string v = lo_m->is_select
                            ? PickOption(*lo_m, "", -1, c.lo)
                            : strings::Format("%.0f", c.lo);
        if (!v.empty()) {
          bindings->emplace_back(lo_m->input_name, v);
          bound_any = true;
        }
      }
      if (hi_m != nullptr) {
        std::string v = hi_m->is_select
                            ? PickOption(*hi_m, "", +1, c.hi)
                            : strings::Format("%.0f", c.hi);
        if (!v.empty()) {
          bindings->emplace_back(hi_m->input_name, v);
          bound_any = true;
        }
      }
      if (bound_any) ++expressed;
      continue;
    }
    const InputMapping* m = source.MappingFor(c.attribute, 0);
    if (m == nullptr) continue;
    if (m->is_select) {
      std::string opt = PickOption(*m, c.value, 0, 0.0);
      if (opt.empty()) continue;  // source cannot express this value
      bindings->emplace_back(m->input_name, opt);
    } else {
      bindings->emplace_back(m->input_name, c.value);
    }
    ++expressed;
  }
  if (query.constraints.empty()) return true;
  return static_cast<double>(expressed) /
             static_cast<double>(query.constraints.size()) >=
         kMinConstraintCoverage;
}

Result<RoutedAnswer> VerticalEngine::Answer(const StructuredQuery& query) {
  RoutedAnswer answer;
  // Route: same-domain sources, scored by classification quality.
  std::vector<const Source*> candidates;
  for (const auto& s : sources_) {
    if (s.domain == query.domain) candidates.push_back(&s);
  }
  answer.sources_considered = candidates.size();
  std::sort(candidates.begin(), candidates.end(),
            [](const Source* a, const Source* b) {
              if (a->classification_score != b->classification_score) {
                return a->classification_score > b->classification_score;
              }
              return a->form.action.host() < b->form.action.host();
            });
  // Collect query value tokens for scoring extracted records.
  std::vector<std::string> value_tokens;
  for (const auto& c : query.constraints) {
    for (const auto& t : index::Tokenize(c.value)) value_tokens.push_back(t);
  }
  for (const Source* source : candidates) {
    if (answer.sources_queried >= kMaxSourcesPerQuery) break;
    core::Bindings bindings;
    if (!Reformulate(*source, query, &bindings)) continue;
    if (source->form.is_post) {
      // The mediator *can* use POST at query time (no pre-indexing
      // involved); submit the form body.
      net::Url action = source->form.action;
      net::QueryParams body = source->form.fixed_params;
      for (const auto& [k, v] : bindings) body.emplace_back(k, v);
      auto resp = web_->Post(action, body);
      ++answer.requests_made;
      ++answer.sources_queried;
      if (!resp.ok() || resp->status_code != 200) continue;
      auto dom = html::Parse(resp->body);
      for (auto& rec : source->wrapper.Apply(*dom)) {
        AnswerRecord ar;
        ar.source_host = source->form.action.host();
        ar.record = std::move(rec);
        answer.records.push_back(std::move(ar));
      }
      continue;
    }
    auto resp = web_->Get(core::SubmissionUrl(source->form, bindings));
    ++answer.requests_made;
    ++answer.sources_queried;
    if (!resp.ok() || resp->status_code != 200) continue;
    auto dom = html::Parse(resp->body);
    for (auto& rec : source->wrapper.Apply(*dom)) {
      AnswerRecord ar;
      ar.source_host = source->form.action.host();
      ar.record = std::move(rec);
      answer.records.push_back(std::move(ar));
    }
  }
  // Score: fraction of query value tokens present in the record text.
  for (auto& ar : answer.records) {
    if (value_tokens.empty()) {
      ar.score = 1.0;
      continue;
    }
    std::string text = strings::ToLower(ar.record.Joined());
    size_t present = 0;
    for (const auto& t : value_tokens) {
      if (strings::Contains(text, t)) ++present;
    }
    ar.score = static_cast<double>(present) /
               static_cast<double>(value_tokens.size());
  }
  std::stable_sort(answer.records.begin(), answer.records.end(),
                   [](const AnswerRecord& a, const AnswerRecord& b) {
                     return a.score > b.score;
                   });
  if (answer.records.size() > kMaxRecords) answer.records.resize(kMaxRecords);
  return answer;
}

Result<RoutedAnswer> VerticalEngine::AnswerKeywords(
    const std::string& query, const extract::QueryRecognizer& recognizer) {
  auto recognized = recognizer.Recognize(query);
  if (recognized.empty()) {
    return Status::NotFound(
        "no structure recognized in keyword query; cannot route");
  }
  // Choose the domain whose schema covers the most recognized attributes.
  const MediatedSchema* best = nullptr;
  size_t best_covered = 0;
  for (const auto& schema : BuiltinSchemas()) {
    size_t covered = 0;
    for (const auto& ann : recognized) {
      if (schema.Find(ann.attribute) != nullptr) ++covered;
    }
    if (covered > best_covered) {
      best = &schema;
      best_covered = covered;
    }
  }
  if (best == nullptr) {
    return Status::NotFound("recognized attributes match no domain schema");
  }
  StructuredQuery structured;
  structured.domain = best->domain;
  for (const auto& ann : recognized) {
    if (best->Find(ann.attribute) == nullptr) continue;
    Constraint c;
    c.attribute = ann.attribute;
    c.value = ann.value;
    structured.constraints.push_back(std::move(c));
  }
  // Leftover (unrecognized) tokens ride along on the keywords attribute
  // when the schema has one.
  if (best->Find("keywords") != nullptr) {
    std::string leftovers;
    for (const auto& tok : index::Tokenize(query)) {
      bool used = false;
      for (const auto& ann : recognized) {
        if (strings::Contains(strings::ToLower(ann.value), tok)) used = true;
      }
      if (!used) {
        if (!leftovers.empty()) leftovers.push_back(' ');
        leftovers += tok;
      }
    }
    if (!leftovers.empty()) {
      Constraint c;
      c.attribute = "keywords";
      c.value = leftovers;
      structured.constraints.push_back(std::move(c));
    }
  }
  return Answer(structured);
}

}  // namespace vertical
}  // namespace deepsurf
