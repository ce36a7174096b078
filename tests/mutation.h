// Seeded byte mutation shared by the decoder mutation tests
// (wire_mutation_test, codec_mutation_test). The base seed is gtest's
// random seed: 0 in a plain run, fresh per repeat under --gtest_shuffle
// --gtest_repeat=N (gtest prints it), replayed with
// --gtest_random_seed=S.

#ifndef DEEPSURF_TESTS_MUTATION_H_
#define DEEPSURF_TESTS_MUTATION_H_

#include <gtest/gtest.h>

#include <cstdint>
#include <string>

#include "util/rng.h"

namespace deepsurf {
namespace mutation {

/// One generator stream per case, derived from gtest's seed.
inline Rng SeededRng(uint64_t salt) {
  const auto seed = static_cast<uint64_t>(
      ::testing::UnitTest::GetInstance()->random_seed());
  return Rng(seed * 16 + salt);
}

inline std::string RandomByte(Rng* rng) {
  return std::string(1, static_cast<char>(rng->Uniform(256)));
}

inline std::string RandomBytes(Rng* rng, size_t max_len) {
  std::string s(static_cast<size_t>(rng->Uniform(max_len + 1)), '\0');
  for (char& c : s) c = static_cast<char>(rng->Uniform(256));
  return s;
}

/// Applies 1-4 seeded edits to `s`: flip a bit, delete a byte, or insert
/// `insert(rng)`. Returns a description of the edits for failure text.
template <typename Insert>
std::string Mutate(std::string* s, Rng* rng, Insert insert) {
  std::string how;
  for (uint64_t edits = 1 + rng->Uniform(4); edits > 0; --edits) {
    const size_t at = static_cast<size_t>(rng->Uniform(s->size() + 1));
    const uint64_t kind = rng->Uniform(3);
    if (kind == 0 && at < s->size()) {
      (*s)[at] = static_cast<char>((*s)[at] ^ (1 << rng->Uniform(8)));
      how += " flip@" + std::to_string(at);
    } else if (kind == 1) {
      s->insert(at, insert(rng));
      how += " insert@" + std::to_string(at);
    } else if (at < s->size()) {
      s->erase(at, 1);
      how += " delete@" + std::to_string(at);
    }
  }
  return how;
}

}  // namespace mutation
}  // namespace deepsurf

#endif  // DEEPSURF_TESTS_MUTATION_H_
