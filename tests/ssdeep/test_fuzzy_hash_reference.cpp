// Differential test: the byte-lane FuzzyHasher against the retained
// reference engine (tests/support/reference_fuzzy_hash.hpp). Both run the
// same call sequence — one-shot, streamed, split, copied, reset — and must
// produce identical digests at every point a digest is taken.
#include "ssdeep/fuzzy_hash.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <numeric>
#include <ostream>
#include <span>
#include <string>
#include <vector>

#include "corpus/app_spec.hpp"
#include "corpus/corpus.hpp"
#include "elf/strings_extract.hpp"
#include "elf/symbols_extract.hpp"
#include "ssdeep/rolling_hash.hpp"
#include "support/reference_fuzzy_hash.hpp"
#include "util/rng.hpp"

namespace fhc::ssdeep {

// Failure messages show the digest text, not a byte dump.
void PrintTo(const FuzzyDigest& digest, std::ostream* os) { *os << digest.to_string(); }

namespace {

using testsupport::reference_fuzzy_hash;
using testsupport::ReferenceFuzzyHasher;
using testsupport::ReferenceRollingHash;
using Bytes = std::vector<std::uint8_t>;

constexpr std::size_t kAlphabets[] = {1, 2, 4, 256};

/// `n` bytes drawn uniformly from `alphabet` distinct byte values, which
/// are themselves chosen by the seed (so alphabet 1 is a constant run of
/// some byte, not always zero).
Bytes alphabet_bytes(std::uint64_t seed, std::size_t n, std::size_t alphabet) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> symbols(256);
  std::iota(symbols.begin(), symbols.end(), std::uint8_t{0});
  rng.shuffle(symbols);
  Bytes out(n);
  for (auto& b : out) b = symbols[rng.next_below(alphabet)];
  return out;
}

std::span<const std::uint8_t> slice(const Bytes& data, std::size_t begin, std::size_t end) {
  return std::span<const std::uint8_t>(data).subspan(begin, end - begin);
}

/// Sizes straddling every level's blocksize * kSpamsumLength boundary
/// (3 * 2^i * 64), where digest() moves its blocksize guess up a level.
std::vector<std::size_t> boundary_sizes(std::size_t max_size) {
  std::vector<std::size_t> sizes = {0, 1, 2, 6, 7, 8, 63, 64, 65};
  for (std::size_t b = kMinBlocksize * kSpamsumLength; b + 1 <= max_size; b *= 2) {
    sizes.insert(sizes.end(), {b - 1, b, b + 1});
  }
  return sizes;
}

TEST(FuzzyHashReference, OneShotMatchesOnRandomInputs) {
  for (const std::size_t alphabet : kAlphabets) {
    const Bytes data = alphabet_bytes(alphabet, (256 << 10) + 1, alphabet);
    for (const std::size_t size : boundary_sizes(data.size())) {
      const auto input = slice(data, 0, size);
      ASSERT_EQ(fuzzy_hash(input), reference_fuzzy_hash(input))
          << "alphabet " << alphabet << ", size " << size;
    }
  }
}

TEST(FuzzyHashReference, StreamedDigestsMatchAtEveryLevelBoundary) {
  // One pass per alphabet up to 3 MiB + 1, taking a digest at every
  // boundary size on the way: each is a mid-stream digest() as well.
  // Random bytes go on to 8 MiB, where digest() picks level 16
  // (blocksize 196608), the first level whose lanes the engine leaves
  // untouched until the level forks.
  for (const std::size_t alphabet : kAlphabets) {
    const std::size_t size = alphabet == 256 ? std::size_t{8} << 20 : (std::size_t{3} << 20) + 1;
    const Bytes data = alphabet_bytes(100 + alphabet, size, alphabet);
    std::vector<std::size_t> sizes = boundary_sizes(size);
    if (sizes.back() != size) sizes.push_back(size);
    FuzzyHasher engine;
    ReferenceFuzzyHasher reference;
    std::size_t fed = 0;
    for (const std::size_t cut : sizes) {
      engine.update(slice(data, fed, cut));
      reference.update(slice(data, fed, cut));
      fed = cut;
      ASSERT_EQ(engine.digest(), reference.digest())
          << "alphabet " << alphabet << ", size " << cut;
    }
    if (alphabet == 256) {
      EXPECT_EQ(engine.digest().blocksize, kMinBlocksize << 16);
    }
  }
}

TEST(FuzzyHashReference, OneShotEqualsStreamAcrossTheLevelCap) {
  // The one-shot fuzzy_hash() knows its input size and stops absorbing two
  // levels above digest()'s blocksize guess; a streaming FuzzyHasher cannot
  // and hashes every level. Sizes either side of each guess boundary put
  // the cap one level higher or lower on the same bytes.
  for (const std::size_t alphabet : kAlphabets) {
    const Bytes data = alphabet_bytes(800 + alphabet, (std::size_t{3} << 20) + 1, alphabet);
    for (const std::size_t size : boundary_sizes(data.size())) {
      const auto input = slice(data, 0, size);
      FuzzyHasher stream;
      stream.update(slice(data, 0, size / 3));
      stream.update(slice(data, size / 3, size));
      const FuzzyDigest capped = fuzzy_hash(input);
      ASSERT_EQ(capped, stream.digest()) << "alphabet " << alphabet << ", size " << size;
      ASSERT_EQ(capped, reference_fuzzy_hash(input))
          << "alphabet " << alphabet << ", size " << size;
    }
  }
}

TEST(FuzzyHashReference, CorpusImagesMatchOnAllChannels) {
  corpus::Corpus corpus(corpus::scaled_app_classes(0.02), 42);
  const auto& samples = corpus.samples();
  ASSERT_FALSE(samples.empty());
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 40);
  int checked = 0;
  for (std::size_t s = 0; s < samples.size(); s += stride) {
    for (const bool stripped : {false, true}) {
      const Bytes image = corpus.sample_bytes(samples[s], stripped);
      const std::string strings = elf::strings_text(image);
      const std::string symbols = elf::global_text_symbols_text(image);
      EXPECT_EQ(fuzzy_hash(image), reference_fuzzy_hash(image)) << samples[s].rel_path();
      EXPECT_EQ(fuzzy_hash(strings), reference_fuzzy_hash(strings)) << samples[s].rel_path();
      EXPECT_EQ(fuzzy_hash(symbols), reference_fuzzy_hash(symbols)) << samples[s].rel_path();
      ++checked;
    }
  }
  EXPECT_GE(checked, 40);
}

TEST(FuzzyHashReference, EverySplitPointUpTo512Bytes) {
  for (const std::size_t alphabet : kAlphabets) {
    const Bytes data = alphabet_bytes(200 + alphabet, 512, alphabet);
    for (const std::size_t size : {std::size_t{1}, std::size_t{7}, std::size_t{64},
                                   std::size_t{191}, std::size_t{192}, std::size_t{193},
                                   std::size_t{384}, std::size_t{512}}) {
      for (std::size_t cut = 0; cut <= size; ++cut) {
        FuzzyHasher engine;
        ReferenceFuzzyHasher reference;
        engine.update(slice(data, 0, cut));
        reference.update(slice(data, 0, cut));
        ASSERT_EQ(engine.digest(), reference.digest())
            << "alphabet " << alphabet << ", size " << size << ", cut " << cut;
        engine.update(slice(data, cut, size));
        reference.update(slice(data, cut, size));
        ASSERT_EQ(engine.digest(), reference.digest())
            << "alphabet " << alphabet << ", size " << size << ", cut " << cut;
      }
    }
  }
}

TEST(FuzzyHashReference, RandomSplitsMatch) {
  util::Rng rng(7);
  for (const std::size_t alphabet : kAlphabets) {
    for (const std::size_t size : {std::size_t{513}, std::size_t{4099},
                                   std::size_t{50000}, std::size_t{300001}}) {
      const Bytes data = alphabet_bytes(300 + alphabet + size, size, alphabet);
      FuzzyHasher engine;
      ReferenceFuzzyHasher reference;
      std::size_t fed = 0;
      while (fed < size) {
        // Piece lengths from 0 (an empty update) up to ~size/4.
        const std::size_t piece = std::min(size - fed, rng.next_below(size / 4 + 2));
        engine.update(slice(data, fed, fed + piece));
        reference.update(slice(data, fed, fed + piece));
        fed += piece;
        if (rng.next_below(4) == 0) {
          ASSERT_EQ(engine.digest(), reference.digest())
              << "alphabet " << alphabet << ", size " << size << ", at " << fed;
        }
      }
      ASSERT_EQ(engine.digest(), reference.digest())
          << "alphabet " << alphabet << ", size " << size;
      EXPECT_EQ(engine.total_size(), reference.total_size());
    }
  }
}

TEST(FuzzyHashReference, ByteAtATimeMatches) {
  for (const std::size_t alphabet : kAlphabets) {
    const Bytes data = alphabet_bytes(400 + alphabet, 20000, alphabet);
    FuzzyHasher engine;
    ReferenceFuzzyHasher reference;
    for (std::size_t i = 0; i < data.size(); ++i) {
      engine.update(slice(data, i, i + 1));
      reference.update(slice(data, i, i + 1));
      if (i % 97 == 0) {
        ASSERT_EQ(engine.digest(), reference.digest())
            << "alphabet " << alphabet << ", byte " << i;
      }
    }
    EXPECT_EQ(engine.digest(), reference.digest()) << "alphabet " << alphabet;
    EXPECT_EQ(engine.digest(), fuzzy_hash(data)) << "alphabet " << alphabet;
  }
}

TEST(FuzzyHashReference, CopyThenContinueMatches) {
  const Bytes head = alphabet_bytes(500, 30000, 256);
  const Bytes tail_a = alphabet_bytes(501, 40000, 256);
  const Bytes tail_b = alphabet_bytes(502, 25000, 4);

  FuzzyHasher engine;
  ReferenceFuzzyHasher reference;
  engine.update(head);
  reference.update(head);

  FuzzyHasher engine_copy = engine;          // copy construction
  ReferenceFuzzyHasher reference_copy = reference;
  FuzzyHasher engine_assigned;               // copy assignment over used state
  engine_assigned.update(tail_b);
  engine_assigned = engine;

  engine.update(tail_a);
  reference.update(tail_a);
  engine_copy.update(tail_b);
  reference_copy.update(tail_b);
  engine_assigned.update(tail_b);

  EXPECT_EQ(engine.digest(), reference.digest());
  EXPECT_EQ(engine_copy.digest(), reference_copy.digest());
  EXPECT_EQ(engine_assigned.digest(), reference_copy.digest());
  EXPECT_NE(engine.digest(), engine_copy.digest());
}

TEST(FuzzyHashReference, ResetThenReuseMatches) {
  const Bytes first = alphabet_bytes(600, 200000, 256);
  const Bytes second = alphabet_bytes(601, 7000, 2);
  FuzzyHasher engine;
  ReferenceFuzzyHasher reference;
  engine.update(first);
  reference.update(first);
  ASSERT_EQ(engine.digest(), reference.digest());
  engine.reset();
  reference.reset();
  EXPECT_EQ(engine.total_size(), 0u);
  EXPECT_EQ(engine.digest(), reference.digest());  // the empty digest
  engine.update(second);
  reference.update(second);
  EXPECT_EQ(engine.digest(), reference.digest());
  EXPECT_EQ(engine.digest(), reference_fuzzy_hash(second));
}

TEST(RollingHashReference, MatchesOnEveryByte) {
  for (const std::size_t alphabet : kAlphabets) {
    const Bytes data = alphabet_bytes(700 + alphabet, 100000, alphabet);
    RollingHash roll;
    ReferenceRollingHash reference;
    ASSERT_EQ(roll.sum(), reference.sum());
    for (std::size_t i = 0; i < data.size(); ++i) {
      ASSERT_EQ(roll.update(data[i]), reference.update(data[i]))
          << "alphabet " << alphabet << ", byte " << i;
      ASSERT_EQ(roll.sum(), reference.sum());
      if (i == data.size() / 2) {
        roll.reset();
        reference.reset();
      }
    }
  }
}

}  // namespace
}  // namespace fhc::ssdeep
