#include "core/templates.h"

#include <algorithm>
#include <set>

#include "util/logging.h"

namespace deepsurf {
namespace core {

std::vector<const EvaluatedTemplate*> TemplateSearchResult::Informative()
    const {
  std::vector<const EvaluatedTemplate*> out;
  for (const auto& t : evaluated) {
    if (t.informative) out.push_back(&t);
  }
  return out;
}

namespace {

/// Minimum distinct fraction of an informative template.
constexpr double kInformativeThreshold = 0.25;
/// Template size cap ([12] uses 3).
constexpr size_t kMaxDimension = 3;
/// Candidate bindings sampled per input.
constexpr size_t kMaxChoicesPerInput = 40;

/// Deterministically samples up to `k` assignments from the cross product
/// of the template's inputs, spreading samples across each input's choice
/// list (stride sampling — no RNG so analysis is reproducible).
std::vector<Bindings> SampleAssignments(
    const std::vector<TemplateInput>& inputs,
    const std::vector<size_t>& tmpl, size_t k) {
  std::vector<size_t> sizes;
  size_t total = 1;
  for (size_t idx : tmpl) {
    size_t n = std::min(inputs[idx].choices.size(), kMaxChoicesPerInput);
    if (n == 0) return {};
    sizes.push_back(n);
    if (total < (size_t)1 << 40) total *= n;
  }
  size_t want = std::min(k, total);
  std::vector<Bindings> out;
  out.reserve(want);
  // Stride through the cross product: sample s visits position
  // floor(s * total / want), decoded in mixed radix.
  for (size_t s = 0; s < want; ++s) {
    size_t pos = (total <= want) ? s : s * (total / want);
    Bindings assignment;
    size_t rem = pos;
    for (size_t d = 0; d < tmpl.size(); ++d) {
      size_t choice = rem % sizes[d];
      rem /= sizes[d];
      for (const auto& binding : inputs[tmpl[d]].choices[choice]) {
        assignment.push_back(binding);
      }
    }
    out.push_back(std::move(assignment));
  }
  return out;
}

}  // namespace

Result<TemplateSearchResult> SearchTemplates(
    FormProber* prober, const std::vector<TemplateInput>& inputs,
    const TemplateOptions& options) {
  TemplateSearchResult result;

  auto evaluate = [&](std::vector<size_t> tmpl)
      -> Result<EvaluatedTemplate> {
    EvaluatedTemplate ev;
    ev.inputs = std::move(tmpl);
    auto assignments =
        SampleAssignments(inputs, ev.inputs, options.sample_assignments);
    std::set<uint64_t> signatures;
    std::set<uint64_t> records;
    size_t pages = 0;
    bool any_probe = false;
    for (const auto& assignment : assignments) {
      auto probe = prober->Probe(assignment);
      ++result.probes_used;
      if (!probe.ok()) {
        if (probe.status().IsResourceExhausted()) {
          // Keep the samples gathered so far; when not even one probe
          // went through, surface the exhaustion to the caller.
          if (!any_probe) return probe.status();
          break;
        }
        continue;
      }
      any_probe = true;
      ++pages;
      ++ev.sampled;
      if (probe->HasResults()) {
        ++ev.results_seen;
        signatures.insert(probe->signature);
        for (uint64_t h : probe->record_hashes) records.insert(h);
        ev.records_per_page.push_back(probe->record_count);
      }
    }
    if (pages > 0) {
      ev.distinct_fraction =
          static_cast<double>(signatures.size()) / static_cast<double>(pages);
    }
    ev.informative = pages > 0 && signatures.size() >= 2 &&
                     ev.distinct_fraction >= kInformativeThreshold;
    ev.sample_record_hashes.assign(records.begin(), records.end());
    return ev;
  };

  // Probe-budget exhaustion is an expected control signal: the search
  // stops and returns whatever has been evaluated so far (the surfacing
  // scheme is then built from the partial lattice). Other errors still
  // propagate.
  bool budget_exhausted = false;
  auto evaluate_guarded =
      [&](std::vector<size_t> tmpl) -> Result<EvaluatedTemplate> {
    auto ev = evaluate(std::move(tmpl));
    if (!ev.ok() && ev.status().IsResourceExhausted()) {
      budget_exhausted = true;
    }
    return ev;
  };

  // Dimension 1.
  std::vector<std::vector<size_t>> frontier;
  for (size_t i = 0; i < inputs.size() && !budget_exhausted; ++i) {
    auto ev = evaluate_guarded({i});
    if (!ev.ok()) {
      if (budget_exhausted) break;
      return ev.status();
    }
    if (ev->informative) frontier.push_back(ev->inputs);
    result.evaluated.push_back(std::move(ev).value());
  }

  // Higher dimensions: extend informative templates by one informative
  // singleton with a larger index (canonical order avoids duplicates).
  std::set<size_t> informative_singletons;
  for (const auto& ev : result.evaluated) {
    if (ev.informative) informative_singletons.insert(ev.inputs[0]);
  }
  for (size_t dim = 2;
       dim <= kMaxDimension && !frontier.empty() && !budget_exhausted;
       ++dim) {
    std::vector<std::vector<size_t>> next;
    for (const auto& base : frontier) {
      if (budget_exhausted) break;
      for (size_t ext : informative_singletons) {
        if (ext <= base.back()) continue;
        std::vector<size_t> tmpl = base;
        tmpl.push_back(ext);
        auto ev = evaluate_guarded(tmpl);
        if (!ev.ok()) {
          if (budget_exhausted) break;
          return ev.status();
        }
        if (ev->informative) next.push_back(ev->inputs);
        result.evaluated.push_back(std::move(ev).value());
      }
    }
    frontier = std::move(next);
  }
  return result;
}

size_t TemplateCardinality(const std::vector<TemplateInput>& inputs,
                           const EvaluatedTemplate& tmpl) {
  size_t total = 1;
  for (size_t idx : tmpl.inputs) {
    DS_CHECK(idx < inputs.size()) << "template references missing input";
    size_t n = inputs[idx].choices.size();
    if (n == 0) return 0;
    total *= n;
  }
  return total;
}

std::vector<Bindings> ExpandTemplate(const std::vector<TemplateInput>& inputs,
                                     const EvaluatedTemplate& tmpl,
                                     size_t max_urls) {
  std::vector<Bindings> out;
  size_t total = TemplateCardinality(inputs, tmpl);
  if (total == 0) return out;
  size_t want = max_urls == 0 ? total : std::min(total, max_urls);
  std::vector<size_t> sizes;
  for (size_t idx : tmpl.inputs) sizes.push_back(inputs[idx].choices.size());
  for (size_t pos = 0; pos < want; ++pos) {
    Bindings assignment;
    size_t rem = pos;
    for (size_t d = 0; d < tmpl.inputs.size(); ++d) {
      size_t choice = rem % sizes[d];
      rem /= sizes[d];
      for (const auto& binding : inputs[tmpl.inputs[d]].choices[choice]) {
        assignment.push_back(binding);
      }
    }
    out.push_back(std::move(assignment));
  }
  return out;
}

}  // namespace core
}  // namespace deepsurf
