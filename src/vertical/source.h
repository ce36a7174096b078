// Copyright 2026 The deepsurf Authors.
//
// Source registration for virtual integration: classify a discovered form
// into a domain, infer the semantic mappings from its inputs to the
// domain's mediated schema, induce a result-page wrapper, and build a
// content summary for routing. This is the per-source manual/semi-
// automatic work whose cost the paper argues does not scale (§3.1).

#ifndef DEEPSURF_VERTICAL_SOURCE_H_
#define DEEPSURF_VERTICAL_SOURCE_H_

#include <map>
#include <string>
#include <vector>

#include "core/form_model.h"
#include "extract/record_extractor.h"
#include "net/web.h"
#include "util/result.h"
#include "vertical/mediated_schema.h"

namespace deepsurf {
namespace vertical {

/// One mapping from a form input to a mediated attribute.
struct InputMapping {
  std::string input_name;
  std::string attribute;
  /// -1: lower bound of a range; +1: upper bound; 0: plain equality /
  /// keyword binding.
  int range_side = 0;
  bool is_select = false;
  std::vector<std::string> select_values;
};

/// A registered deep-web source.
struct Source {
  core::AnalyzedForm form;
  std::string domain;
  double classification_score = 0.0;  ///< fraction of inputs mapped
  std::vector<InputMapping> mappings;
  extract::InducedWrapper wrapper;
  /// Characteristic terms of sampled result pages (routing signal).
  std::map<std::string, double> content_summary;
  size_t registration_probes = 0;

  const InputMapping* MappingFor(const std::string& attribute,
                                 int range_side) const;
};

/// Registers a form against the built-in schemas. Fails (NotFound) when
/// no domain maps at least 0.34 of the form's inputs — the
/// unclassifiable forms the paper says dominate at web scale. Up to
/// three sampled result pages build the content summary.
Result<Source> RegisterSource(net::SimulatedWeb* web,
                              const net::Url& page_url,
                              const html::Form& form);

}  // namespace vertical
}  // namespace deepsurf

#endif  // DEEPSURF_VERTICAL_SOURCE_H_
