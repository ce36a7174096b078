// Seeded mutation tests for the remote layer's decoders of hostile
// bytes: the six wire decoders (Decode{Search,Ingest,Health}{Request,
// Response}). Each case builds valid frames from a seeded generator and
// mutates them: truncation at every offset, every 4- and 8-byte window
// set to 0, to the maximum and to its value plus and minus one (which
// reaches every length, count, seq and id field), and seeded runs of
// byte flips, inserts and deletes. The properties:
//   * no crash and no sanitizer report (CI's ASan+UBSan job runs this);
//   * a valid message decodes and re-encodes to its own bytes;
//   * a mutant that decodes re-encodes to exactly its own bytes, the
//     canonical encoding wire.h promises (frames are compared and
//     hashed).
//
// Seeds: see tests/mutation.h.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <string>

#include "mutation.h"
#include "remote/wire.h"
#include "util/rng.h"

namespace deepsurf {
namespace remote {
namespace {

/// Valid messages generated per decoder, and seeded mutants per message.
constexpr int kMessages = 64;
constexpr int kRandomMutants = 128;

using mutation::Mutate;
using mutation::RandomByte;
using mutation::RandomBytes;
using mutation::SeededRng;

double RandomDouble(Rng* rng) {
  const uint64_t bits = rng->Next();
  double v = 0.0;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

// --- Valid messages. ---

SearchRequest RandomSearchRequest(Rng* rng) {
  SearchRequest m;
  for (uint64_t n = rng->Uniform(5); n > 0; --n) {
    m.terms.push_back(RandomBytes(rng, 8));
  }
  m.k = rng->Next();
  m.stats.num_docs = RandomDouble(rng);
  m.stats.total_length = RandomDouble(rng);
  for (uint64_t n = rng->Uniform(5); n > 0; --n) {
    m.stats.term_df.push_back(static_cast<size_t>(rng->Next()));
  }
  if (rng->Bernoulli(0.5)) {
    m.trace_id = rng->Next() | 1;
    m.parent_span = rng->Next();
    m.trace_flags = static_cast<uint8_t>(rng->Uniform(256));
  }
  return m;
}

SearchResponse RandomSearchResponse(Rng* rng) {
  SearchResponse m;
  for (uint64_t n = rng->Uniform(6); n > 0; --n) {
    m.hits.push_back(index::SearchHit{static_cast<index::DocId>(rng->Next()),
                                      RandomDouble(rng)});
  }
  if (rng->Bernoulli(0.5)) {
    m.has_timing = true;
    m.queue_us = rng->Next();
    m.score_us = rng->Next();
    m.blocks_decoded = rng->Next();
    m.blocks_skipped = rng->Next();
  }
  return m;
}

IngestRequest RandomIngestRequest(Rng* rng) {
  IngestRequest m;
  m.seq = rng->Next();
  for (uint64_t n = rng->Uniform(4); n > 0; --n) {
    index::Document d;
    d.url = RandomBytes(rng, 12);
    d.title = RandomBytes(rng, 8);
    d.body = RandomBytes(rng, 24);
    d.is_deep_web = rng->Bernoulli(0.5);
    d.source_host = RandomBytes(rng, 8);
    m.docs.push_back(std::move(d));
  }
  return m;
}

IngestResponse RandomIngestResponse(Rng* rng) {
  IngestResponse m;
  m.seq = rng->Next();
  for (uint64_t n = rng->Uniform(6); n > 0; --n) {
    m.local_ids.push_back(static_cast<uint32_t>(rng->Next()));
    m.newly_added.push_back(static_cast<uint8_t>(rng->Uniform(2)));
    m.lengths.push_back(static_cast<uint32_t>(rng->Next()));
  }
  return m;
}

HealthRequest RandomHealthRequest(Rng* rng) {
  HealthRequest m;
  m.include_memory = rng->Bernoulli(0.5);
  return m;
}

HealthResponse RandomHealthResponse(Rng* rng) {
  HealthResponse m;
  index::IndexMemoryUsage& mem = m.memory;
  for (uint64_t* field :
       {&m.num_docs, &m.epoch, &m.last_applied_seq,
        &mem.posting_doc_raw_bytes, &mem.posting_doc_packed_bytes,
        &mem.posting_weight_bytes, &mem.posting_block_bytes,
        &mem.dictionary_bytes, &mem.norm_cache_bytes, &mem.decode_cache_bytes,
        &mem.num_postings, &m.search.queries, &m.search.blocks_decoded,
        &m.search.blocks_skipped, &m.search.decode_cache_hits}) {
    *field = rng->Next();
  }
  return m;
}

// --- Mutation. ---

/// Runs `check` on every mutant of `frame` (see the file comment) and
/// returns the first failure, naming the mutation that caused it.
template <typename Check>
::testing::AssertionResult EveryMutant(const std::string& frame, Rng* rng,
                                       Check check) {
  auto run = [&](const std::string& mutant, const std::string& how) {
    ::testing::AssertionResult result = check(mutant);
    if (!result) result << " [mutation: " << how << "]";
    return result;
  };
  for (size_t len = 0; len < frame.size(); ++len) {
    auto r = run(frame.substr(0, len), "truncated to " + std::to_string(len));
    if (!r) return r;
  }
  for (size_t width : {4, 8}) {
    const uint64_t max = width == 4 ? 0xffffffffu : ~uint64_t{0};
    for (size_t at = 0; at + width <= frame.size(); ++at) {
      uint64_t value = 0;
      for (size_t b = 0; b < width; ++b) {
        value |= static_cast<uint64_t>(static_cast<uint8_t>(frame[at + b]))
                 << (8 * b);
      }
      for (uint64_t set : {uint64_t{0}, max, (value + 1) & max,
                           (value - 1) & max}) {
        std::string mutant = frame;
        for (size_t b = 0; b < width; ++b) {
          mutant[at + b] = static_cast<char>((set >> (8 * b)) & 0xff);
        }
        auto r = run(mutant, "u" + std::to_string(8 * width) + " at " +
                                 std::to_string(at) + " set to " +
                                 std::to_string(set));
        if (!r) return r;
      }
    }
  }
  for (int i = 0; i < kRandomMutants; ++i) {
    std::string mutant = frame;
    const std::string how = Mutate(&mutant, rng, RandomByte);
    auto r = run(mutant, "edits" + how);
    if (!r) return r;
  }
  return ::testing::AssertionSuccess();
}

/// A frame either fails to decode or decodes to a message that encodes
/// back to exactly `frame`.
template <typename Msg>
::testing::AssertionResult DecodesToItself(
    Result<Msg> (*decode)(const std::string&), const std::string& frame) {
  auto msg = decode(frame);
  if (!msg.ok()) return ::testing::AssertionSuccess();
  const std::string again = Encode(*msg);
  if (again == frame) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure()
         << "a frame of " << frame.size() << " bytes decodes but re-encodes"
         << " to " << again.size() << " other bytes";
}

template <typename Msg>
void CheckDecoder(Result<Msg> (*decode)(const std::string&),
                  Msg (*random_message)(Rng*), uint64_t salt) {
  Rng rng = SeededRng(salt);
  for (int i = 0; i < kMessages; ++i) {
    const std::string frame = Encode(random_message(&rng));
    // Valid messages round-trip: decoding then encoding gives the frame
    // back, which for this injective encoding is every encoded field.
    ASSERT_TRUE(decode(frame).ok()) << "valid message " << i;
    ASSERT_TRUE(DecodesToItself(decode, frame)) << "valid message " << i;
    ASSERT_TRUE(EveryMutant(frame, &rng, [&](const std::string& mutant) {
      return DecodesToItself(decode, mutant);
    })) << "message " << i;
  }
}

TEST(WireMutationTest, SearchRequest) {
  CheckDecoder(&DecodeSearchRequest, &RandomSearchRequest, 1);
}

TEST(WireMutationTest, SearchResponse) {
  CheckDecoder(&DecodeSearchResponse, &RandomSearchResponse, 2);
}

TEST(WireMutationTest, IngestRequest) {
  CheckDecoder(&DecodeIngestRequest, &RandomIngestRequest, 3);
}

TEST(WireMutationTest, IngestResponse) {
  CheckDecoder(&DecodeIngestResponse, &RandomIngestResponse, 4);
}

TEST(WireMutationTest, HealthRequest) {
  CheckDecoder(&DecodeHealthRequest, &RandomHealthRequest, 5);
}

TEST(WireMutationTest, HealthResponse) {
  CheckDecoder(&DecodeHealthResponse, &RandomHealthResponse, 6);
}

// --- The three non-canonical inputs the decoders used to accept. Each
// decoded to a message that re-encodes to different bytes. ---

TEST(WireCanonicalTest, IngestRequestDeepWebFlagIsZeroOrOne) {
  IngestRequest msg;
  msg.seq = 1;
  msg.docs.push_back(index::Document{"u", "t", "b", true, "h"});
  std::string frame = Encode(msg);
  // type, seq, doc count, then three one-byte strings before the flag.
  const size_t flag_at = 1 + 8 + 4 + 3 * (4 + 1);
  ASSERT_EQ(frame[flag_at], '\x01');
  frame[flag_at] = '\x02';
  EXPECT_FALSE(DecodeIngestRequest(frame).ok())
      << "a flag byte of 2 would re-encode as 1";
}

TEST(WireCanonicalTest, HealthRequestMemoryFlagIsZeroOrOne) {
  std::string frame = Encode(HealthRequest{});
  ASSERT_EQ(frame.size(), 2u);
  frame[1] = '\x07';
  EXPECT_FALSE(DecodeHealthRequest(frame).ok())
      << "a flag byte of 7 would re-encode as 1";
}

TEST(WireCanonicalTest, SearchRequestTraceTailNeedsATrace) {
  SearchRequest msg;
  msg.terms = {"alpha"};
  msg.k = 10;
  msg.stats.term_df = {1};
  const std::string untraced = Encode(msg);
  // A tail (trace_id, parent_span, flags) whose trace_id is 0: Encode
  // writes no tail for an untraced request, so this cannot decode.
  std::string frame = untraced + std::string(8, '\0') +
                      std::string(8, '\x05') + std::string(1, '\x01');
  EXPECT_FALSE(DecodeSearchRequest(frame).ok());
  // The same tail carrying a trace decodes and re-encodes to itself.
  frame[untraced.size()] = '\x2a';
  auto traced = DecodeSearchRequest(frame);
  ASSERT_TRUE(traced.ok()) << traced.status();
  EXPECT_EQ(traced->trace_id, 42u);
  EXPECT_EQ(Encode(*traced), frame);
}

}  // namespace
}  // namespace remote
}  // namespace deepsurf
