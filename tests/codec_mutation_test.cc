// Seeded mutation tests for the two decoders of hostile bytes outside
// the remote layer (tests/wire_mutation_test.cc covers that one): the
// bit-pack block decoder (DecodeBitpackBlock), and the URL codec
// (Url::Parse, Url::Resolve, FormUrlDecode, DecodeQuery), which reads
// hrefs and form actions out of crawled pages. Each case builds valid
// inputs from a seeded generator and mutates them with seeded runs of
// byte flips, inserts and deletes; URL inserts favour the bytes the
// codec gives meaning to and %XX runs, well formed or not. The
// properties:
//   * no crash and no sanitizer report (CI's ASan+UBSan job runs this);
//     every bit-pack decode reads from an exact-size heap copy, so a
//     read past the end is an ASan report, not a silent success;
//   * bit-pack: decode(encode(ids)) == ids, consuming exactly the
//     encoded size; a mutant decodes to 0 or to exactly
//     1 + ceil(n*w/8) bytes, where w is its first byte;
//   * URL: a mutant that parses (or resolves) prints a string that
//     parses back to the same ToString() and ToCanonicalString(); and
//     decode after encode is the identity on random bytes and params.
//
// Seeds: see tests/mutation.h.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "index/bitpack_codec.h"
#include "mutation.h"
#include "net/url.h"
#include "util/rng.h"

namespace deepsurf {
namespace {

/// Valid inputs generated per case, and seeded mutants per input.
constexpr int kInputs = 96;
constexpr int kMutants = 128;

using mutation::Mutate;
using mutation::RandomByte;
using mutation::RandomBytes;
using mutation::SeededRng;

// --- Bit-pack decode. ---

/// Ascending doc ids from `base` whose gaps need at most `width` bits.
std::vector<uint32_t> RandomBlock(Rng* rng, size_t n, uint32_t width,
                                  uint32_t base) {
  std::vector<uint32_t> docs(n);
  uint64_t prev = base;
  for (auto& d : docs) {
    if (width > 0) prev += rng->Uniform(uint64_t{1} << width);
    if (prev > UINT32_MAX) prev = UINT32_MAX;
    d = static_cast<uint32_t>(prev);
  }
  return docs;
}

/// Decodes `n` ids from an exact-size heap copy of `bytes` into an
/// exact-size heap array, so ASan reports a read or write past either.
size_t DecodeCopy(const std::string& bytes, size_t n, uint32_t base,
                  std::vector<uint32_t>* ids) {
  auto copy = std::make_unique<uint8_t[]>(bytes.size());
  if (!bytes.empty()) std::memcpy(copy.get(), bytes.data(), bytes.size());
  auto out = std::make_unique<uint32_t[]>(n);
  const size_t used = index::DecodeBitpackBlock(
      copy.get(), copy.get() + bytes.size(), n, base, out.get());
  ids->assign(out.get(), out.get() + n);
  return used;
}

/// The decoder's contract on any bytes: 0, or exactly the header byte
/// plus the payload that the width byte implies.
::testing::AssertionResult ConsumesZeroOrItsWidth(const std::string& bytes,
                                                  size_t n, uint32_t base) {
  std::vector<uint32_t> ids;
  const size_t used = DecodeCopy(bytes, n, base, &ids);
  if (used == 0) return ::testing::AssertionSuccess();
  const auto w = static_cast<uint8_t>(bytes[0]);
  const size_t expected = 1 + (n * w + 7) / 8;
  if (w <= 32 && used == expected && used <= bytes.size()) {
    return ::testing::AssertionSuccess();
  }
  return ::testing::AssertionFailure()
         << "decoding " << n << " ids of width " << unsigned{w} << " from "
         << bytes.size() << " bytes consumed " << used << ", not 0 or "
         << expected;
}

TEST(CodecMutationTest, BitpackBlocks) {
  Rng rng = SeededRng(1);
  for (int i = 0; i < kInputs; ++i) {
    const size_t n = rng.Uniform(300);
    const auto width = static_cast<uint32_t>(rng.Uniform(33));
    const auto base = static_cast<uint32_t>(rng.Uniform(1u << 24));
    const std::vector<uint32_t> docs = RandomBlock(&rng, n, width, base);
    std::vector<uint8_t> packed;
    index::EncodeBitpackBlock(docs.data(), n, base, &packed);
    const std::string block(packed.begin(), packed.end());

    std::vector<uint32_t> ids;
    ASSERT_EQ(DecodeCopy(block, n, base, &ids), block.size())
        << "block " << i << ": " << n << " ids at width " << width;
    ASSERT_EQ(ids, docs) << "block " << i;
    // The block followed by more bytes (as the index's block stream is)
    // consumes the same size and decodes the same ids.
    const std::string followed = block + RandomBytes(&rng, 16);
    ASSERT_EQ(DecodeCopy(followed, n, base, &ids), block.size())
        << "block " << i;
    ASSERT_EQ(ids, docs) << "block " << i;

    for (int m = 0; m < kMutants; ++m) {
      std::string mutant = block;
      const std::string how = Mutate(&mutant, &rng, RandomByte);
      // Decode the mutant both at the block's own size and at another.
      const size_t other_n = rng.Uniform(2 * n + 2);
      ASSERT_TRUE(ConsumesZeroOrItsWidth(mutant, n, base))
          << "block " << i << " [mutation:" << how << "]";
      ASSERT_TRUE(ConsumesZeroOrItsWidth(mutant, other_n, base))
          << "block " << i << " at n=" << other_n << " [mutation:" << how
          << "]";
    }
  }
}

// --- URL codec. ---

std::string RandomWord(Rng* rng, const char* alphabet, size_t max_len) {
  const size_t len = std::strlen(alphabet);
  std::string s(1 + static_cast<size_t>(rng->Uniform(max_len)), 'a');
  for (char& c : s) c = alphabet[rng->Uniform(len)];
  return s;
}

/// A well-formed absolute URL, printed by the codec itself.
std::string RandomUrl(Rng* rng) {
  static const char* kSchemes[] = {"http", "https", "ftp", "h"};
  static const char kHostChars[] = "abcdefghijklmnopqrstuvwxyz0123456789-.";
  net::Url url;
  url.set_scheme(kSchemes[rng->Uniform(4)]);
  url.set_host(RandomWord(rng, kHostChars, 12));
  if (rng->Bernoulli(0.5)) url.set_port(static_cast<int>(rng->Uniform(65536)));
  std::string path;
  for (uint64_t n = rng->Uniform(4); n > 0; --n) {
    path += "/" + (rng->Bernoulli(0.5) ? RandomWord(rng, "abcxyz019-_.~", 6)
                                       : RandomBytes(rng, 6));
  }
  url.set_path(path.empty() ? "/" : path);
  for (uint64_t n = rng->Uniform(4); n > 0; --n) {
    url.AddParam(RandomBytes(rng, 5), RandomBytes(rng, 8));
  }
  return url.ToString();
}

/// An insert for URL mutants: a byte the codec gives meaning to, a %XX
/// run (well formed, half formed or with non-hex digits), a port-like
/// ":" run of up to two digits (often a zero port, which ToString does
/// not print), or any byte.
std::string UrlInsert(Rng* rng) {
  static const char kSyntax[] = ":/?&=+%# @.";
  static const char kHex[] = "0123456789abcdefABCDEFgG";
  auto run = [rng](char lead, const char* digits, size_t num_digits) {
    std::string s(1, lead);
    for (uint64_t d = rng->Uniform(3); d > 0; --d) {
      s.push_back(digits[rng->Uniform(num_digits)]);
    }
    return s;
  };
  switch (rng->Uniform(4)) {
    case 0:
      return std::string(1, kSyntax[rng->Uniform(sizeof(kSyntax) - 1)]);
    case 1:
      return run('%', kHex, sizeof(kHex) - 1);
    case 2:
      return run(':', "001", 3);
    default:
      return RandomByte(rng);
  }
}

/// A parsed or resolved URL prints a string that parses back to a URL
/// with the same ToString() and ToCanonicalString().
::testing::AssertionResult PrintsAndParsesBack(const net::Url& url) {
  const std::string printed = url.ToString();
  auto again = net::Url::Parse(printed);
  if (!again.ok()) {
    return ::testing::AssertionFailure()
           << "\"" << printed << "\" does not parse: " << again.status();
  }
  if (again->ToString() != printed) {
    return ::testing::AssertionFailure()
           << "\"" << printed << "\" parses back as \"" << again->ToString()
           << "\"";
  }
  if (again->ToCanonicalString() != url.ToCanonicalString()) {
    return ::testing::AssertionFailure()
           << "\"" << printed << "\" parses back to canonical \""
           << again->ToCanonicalString() << "\", not \""
           << url.ToCanonicalString() << "\"";
  }
  return ::testing::AssertionSuccess();
}

TEST(CodecMutationTest, UrlParse) {
  Rng rng = SeededRng(2);
  for (int i = 0; i < kInputs; ++i) {
    const std::string text = RandomUrl(&rng);
    auto url = net::Url::Parse(text);
    ASSERT_TRUE(url.ok()) << "\"" << text << "\": " << url.status();
    ASSERT_EQ(url->ToString(), text) << "valid url " << i;
    ASSERT_TRUE(PrintsAndParsesBack(*url)) << "valid url " << i;
    // Mutants of the whole URL, then as many of its origin alone
    // ("scheme://host[:port]/"), so that edits land in the host and port
    // about as often as in the path and query.
    const std::string origin =
        text.substr(0, text.find('/', text.find("://") + 3) + 1);
    for (int m = 0; m < 2 * kMutants; ++m) {
      std::string mutant = m < kMutants ? text : origin;
      const std::string how = Mutate(&mutant, &rng, UrlInsert);
      auto parsed = net::Url::Parse(mutant);
      if (!parsed.ok()) continue;
      ASSERT_TRUE(PrintsAndParsesBack(*parsed))
          << "mutant \"" << mutant << "\" of url " << i << " [mutation:"
          << how << "]";
    }
  }
}

TEST(CodecMutationTest, UrlResolve) {
  Rng rng = SeededRng(3);
  for (int i = 0; i < kInputs; ++i) {
    auto base = net::Url::Parse(RandomUrl(&rng));
    ASSERT_TRUE(base.ok()) << base.status();
    // The reference shapes a page carries: absolute, absolute path,
    // relative path and bare query.
    const std::string target = RandomUrl(&rng);
    const std::string path_ref =
        target.substr(target.find('/', target.find("://") + 3));
    for (const std::string& ref :
         {target, path_ref, path_ref.substr(1),
          "?" + net::EncodeQuery({{RandomBytes(&rng, 4),
                                   RandomBytes(&rng, 4)}})}) {
      for (int m = 0; m < kMutants / 4; ++m) {
        std::string mutant = ref;
        const std::string how = Mutate(&mutant, &rng, UrlInsert);
        auto resolved = net::Url::Resolve(*base, mutant);
        if (!resolved.ok()) continue;
        ASSERT_TRUE(PrintsAndParsesBack(*resolved))
            << "\"" << mutant << "\" against \"" << base->ToString()
            << "\" [mutation:" << how << "]";
      }
    }
  }
}

TEST(CodecMutationTest, FormUrlCodecRoundTrips) {
  Rng rng = SeededRng(4);
  for (int i = 0; i < kInputs * kMutants; ++i) {
    const std::string bytes = RandomBytes(&rng, 24);
    ASSERT_EQ(net::FormUrlDecode(net::FormUrlEncode(bytes)), bytes);

    net::QueryParams params;
    for (uint64_t n = rng.Uniform(4); n > 0; --n) {
      params.emplace_back(RandomBytes(&rng, 6), RandomBytes(&rng, 6));
    }
    ASSERT_EQ(net::DecodeQuery(net::EncodeQuery(params)), params);

    // Any query string, valid or not, decodes to params that survive
    // encoding and decoding again.
    std::string query = net::EncodeQuery(params);
    Mutate(&query, &rng, UrlInsert);
    const net::QueryParams decoded = net::DecodeQuery(query);
    ASSERT_EQ(net::DecodeQuery(net::EncodeQuery(decoded)), decoded)
        << "query \"" << query << "\"";
  }
}

}  // namespace
}  // namespace deepsurf
