// Copyright 2026 The deepsurf Authors.
//
// The virtual-integration engine (paper §3.1): structured queries over a
// mediated schema are routed to relevant registered sources, reformulated
// into per-source form submissions at *query time*, and the results are
// extracted, merged and ranked. A keyword front-end shows the routing /
// reformulation difficulty the paper describes: keywords must first be
// recognized as structured constraints before any source can be queried.

#ifndef DEEPSURF_VERTICAL_VERTICAL_ENGINE_H_
#define DEEPSURF_VERTICAL_VERTICAL_ENGINE_H_

#include <map>
#include <string>
#include <vector>

#include "extract/annotator.h"
#include "net/web.h"
#include "util/result.h"
#include "vertical/source.h"

namespace deepsurf {
namespace vertical {

/// One structured constraint over the mediated schema.
struct Constraint {
  std::string attribute;
  std::string value;   ///< equality / keyword value
  bool is_range = false;
  double lo = 0.0;     ///< for range constraints
  double hi = 0.0;
};

/// A structured query: domain + constraints.
struct StructuredQuery {
  std::string domain;
  std::vector<Constraint> constraints;
};

/// One answer record with provenance.
struct AnswerRecord {
  std::string source_host;
  extract::Record record;
  double score = 0.0;
};

/// Result of answering a query.
struct RoutedAnswer {
  std::vector<AnswerRecord> records;
  size_t sources_considered = 0;
  size_t sources_queried = 0;   ///< sources actually hit at query time
  size_t requests_made = 0;     ///< total fetches caused by this query
};

/// The mediator. A query is routed to at most eight sources, each of
/// which must express at least half of its constraints, and the answer
/// keeps the 50 best records.
class VerticalEngine {
 public:
  explicit VerticalEngine(net::SimulatedWeb* web);

  /// Registers a source (already classified + mapped).
  void AddSource(Source source);

  /// Answers a structured query.
  Result<RoutedAnswer> Answer(const StructuredQuery& query);

  /// Keyword front-end: recognizes structure via the value dictionaries
  /// in `recognizer`, picks the domain whose schema covers the recognized
  /// attributes, and delegates to Answer. Fails (NotFound) when nothing
  /// is recognized — such queries cannot be routed at all, the paper's
  /// central scaling objection.
  Result<RoutedAnswer> AnswerKeywords(const std::string& query,
                                      const extract::QueryRecognizer&
                                          recognizer);

  size_t num_sources() const { return sources_.size(); }
  const std::vector<Source>& sources() const { return sources_; }

 private:
  /// Builds the per-source submission for a query; false when the source
  /// cannot express enough of the constraints.
  bool Reformulate(const Source& source, const StructuredQuery& query,
                   core::Bindings* bindings) const;

  net::SimulatedWeb* web_;
  std::vector<Source> sources_;
};

}  // namespace vertical
}  // namespace deepsurf

#endif  // DEEPSURF_VERTICAL_VERTICAL_ENGINE_H_
