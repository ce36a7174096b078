// Copyright 2026 The deepsurf Authors.
//
// Typed-input recognition (paper §4.1). A text box is either a *search
// box* (accepts arbitrary keywords) or a *typed* box (zip code, city,
// state, date, price, year, ...). The paper's key observation: we never
// need to know what the form is about — only what value space the box
// accepts — and that can be decided by probing: a box is type T when
// samples of T produce results at a rate that clearly beats garbage
// strings. Name/label hints order the candidate types but probes decide.

#ifndef DEEPSURF_CORE_TYPED_H_
#define DEEPSURF_CORE_TYPED_H_

#include <string>
#include <vector>

#include "core/prober.h"
#include "util/result.h"

namespace deepsurf {
namespace core {

/// Recognizable value spaces for text inputs.
enum class DataType {
  kUnknown,    ///< nothing worked — skip this input
  kSearchBox,  ///< arbitrary keywords retrieve records
  kZipCode,
  kCity,
  kState,
  kDate,
  kPrice,
  kYear,
};

const char* DataTypeToString(DataType type);

/// All typed candidates (excludes kUnknown / kSearchBox).
const std::vector<DataType>& TypedCandidates();

/// The probe dictionary for a type: representative sample values. These
/// play the role of the public value dictionaries (USPS zip lists, city
/// gazetteers) the production system mines from the Web.
const std::vector<std::string>& SampleValues(DataType type);

/// True when the input's name or label textually hints at `type`
/// ("zip", "city", "price", ...). Hints only reorder probing.
bool NameHint(DataType type, const std::string& name,
              const std::string& label);

/// Outcome of recognition for one input.
struct TypeVerdict {
  DataType type = DataType::kUnknown;
  /// Success rate of the winning type, over all its samples. For
  /// kUnknown, the search-box test's rate: its hits over the samples it
  /// planned, counting only those probed before the test stopped, so it
  /// can read below the rate of probing them all.
  double hit_rate = 0.0;
  double garbage_rate = 0.0;  ///< success rate of garbage probes
  size_t probes_used = 0;
};

/// Recognizes the type of one text input by probing. `context_words` are
/// site-characteristic words (from already-indexed pages of the host)
/// used for the search-box test. Every probe binds only this input,
/// leaving the rest of the form free. Each test plans six probes but is
/// sequential: it stops once the hits it still needs to pass are out of
/// reach. The verdict's type is the one probing every planned sample
/// would give, since a test that stops could not have passed.
Result<TypeVerdict> RecognizeType(
    FormProber* prober, const std::string& input_name,
    const std::string& label, const std::vector<std::string>& context_words);

}  // namespace core
}  // namespace deepsurf

#endif  // DEEPSURF_CORE_TYPED_H_
