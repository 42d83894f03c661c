// Differential test: the 64-byte bitmask scan in elf::strings_text against
// the retained byte-at-a-time loop (tests/support/reference_strings.hpp).
// The inputs aim at the engine's seams: the printable criterion at every
// byte value, runs carried across block boundaries, the zero-padded final
// block and runs that touch the end of the image.
#include "elf/strings_extract.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "corpus/app_spec.hpp"
#include "corpus/corpus.hpp"
#include "support/reference_strings.hpp"
#include "util/rng.hpp"
#include "util/string_util.hpp"

namespace fhc::elf {
namespace {

using testsupport::reference_strings_text;
using Bytes = std::vector<std::uint8_t>;

/// Bytes that are printable with probability `density`; both classes are
/// drawn uniformly from all their byte values, so 0x7f-0xff and the
/// control characters all appear.
Bytes density_bytes(std::uint64_t seed, std::size_t n, double density) {
  std::vector<std::uint8_t> printable;
  std::vector<std::uint8_t> other;
  for (int v = 0; v < 256; ++v) {
    const auto b = static_cast<std::uint8_t>(v);
    (util::is_printable_ascii(b) ? printable : other).push_back(b);
  }
  util::Rng rng(seed);
  Bytes out(n);
  for (auto& b : out) b = rng.bernoulli(density) ? rng.choice(printable) : rng.choice(other);
  return out;
}

void expect_matches(std::span<const std::uint8_t> data, const std::string& what) {
  ASSERT_EQ(strings_text(data), reference_strings_text(data)) << what;
}

constexpr double kDensities[] = {0.0, 0.05, 0.2, 0.37, 0.5, 0.7, 0.9, 0.97, 1.0};

TEST(StringsReference, CorpusImagesStrippedAndUnstripped) {
  corpus::Corpus corpus(corpus::scaled_app_classes(0.02), 42);
  const auto& samples = corpus.samples();
  ASSERT_FALSE(samples.empty());
  const std::size_t stride = std::max<std::size_t>(1, samples.size() / 40);
  int checked = 0;
  for (std::size_t s = 0; s < samples.size(); s += stride) {
    for (const bool stripped : {false, true}) {
      const Bytes image = corpus.sample_bytes(samples[s], stripped);
      const std::string text = strings_text(image);
      ASSERT_EQ(text, reference_strings_text(image)) << samples[s].rel_path();
      EXPECT_FALSE(text.empty()) << samples[s].rel_path();
      ++checked;
    }
  }
  EXPECT_GE(checked, 40);
}

TEST(StringsReference, RandomBytesAtEveryDensity) {
  std::uint64_t seed = 1;
  for (const double density : kDensities) {
    for (const std::size_t size : {std::size_t{1000}, std::size_t{4096}, std::size_t{65537}}) {
      expect_matches(density_bytes(seed++, size, density),
                     "density " + std::to_string(density) + ", size " + std::to_string(size));
    }
  }
}

TEST(StringsReference, EveryLengthUpTo200) {
  // Every tail size 0..63 of the zero-padded final block, after zero to
  // three full blocks.
  std::uint64_t seed = 100;
  for (std::size_t size = 0; size <= 200; ++size) {
    for (const double density : kDensities) {
      expect_matches(density_bytes(seed++, size, density),
                     "size " + std::to_string(size) + ", density " + std::to_string(density));
    }
  }
}

TEST(StringsReference, EveryByteValueInsideARun) {
  // The SWAR classifier looks at the low 7 bits first: 0xa0 and 0xfe share
  // them with ' ' and '~' and must still end a run.
  for (int v = 0; v < 256; ++v) {
    Bytes data = {'a', 'b', 'c', 'd', static_cast<std::uint8_t>(v), 'e', 'f', 'g', 'h'};
    expect_matches(data, "byte " + std::to_string(v));
    data.assign(64, 'x');
    data[31] = static_cast<std::uint8_t>(v);
    data.push_back(static_cast<std::uint8_t>(v));
    expect_matches(data, "block of x with byte " + std::to_string(v));
  }
}

TEST(StringsReference, RunsAtEveryOffsetAcrossBlockBoundaries) {
  constexpr std::size_t kRunLengths[] = {1, 2, 3, 4, 5, 63, 64, 65, 70, 129};
  constexpr std::uint8_t kBackgrounds[] = {0x00, 0x1f, 0x7f, 0x80, 0xa0, 0xff};
  for (const std::size_t length : kRunLengths) {
    for (const std::uint8_t background : kBackgrounds) {
      // Starts from well before the 64-byte boundary to past the 128 one,
      // so a run lies before, straddles or follows each seam.
      for (std::size_t start = 0; start <= 140; ++start) {
        Bytes data(320, background);
        for (std::size_t i = 0; i < length; ++i) {
          data[start + i] = static_cast<std::uint8_t>(0x20 + (start + 7 * i) % 95);
        }
        expect_matches(data, "run " + std::to_string(length) + " at " + std::to_string(start));
        // Two runs with a one-byte gap: the second starts right after
        // the first ends.
        if (start + length + 5 < data.size()) {
          for (std::size_t i = 0; i < 4; ++i) data[start + length + 1 + i] = 'q';
          expect_matches(data, "run " + std::to_string(length) + " at " +
                                   std::to_string(start) + " then a gap");
        }
      }
    }
  }
}

TEST(StringsReference, RunsThatTouchTheImageEnd) {
  for (std::size_t size = 1; size <= 200; ++size) {
    for (const std::size_t length : {std::size_t{1}, std::size_t{3}, std::size_t{4},
                                     std::size_t{5}, std::size_t{64}, std::size_t{65}, size}) {
      if (length > size) continue;
      Bytes data(size, 0x00);
      std::fill(data.end() - static_cast<std::ptrdiff_t>(length), data.end(), 'r');
      expect_matches(data, "size " + std::to_string(size) + ", final run " +
                               std::to_string(length));
    }
  }
}

TEST(StringsReference, ReadsNothingPastTheSpan) {
  // The image is a window of a larger all-printable buffer: a run that
  // reaches the window's end must stop there, though printable bytes
  // follow in memory.
  const Bytes buffer(300, 'p');
  for (std::size_t size = 0; size <= 200; ++size) {
    const std::span<const std::uint8_t> window(buffer.data() + 3, size);
    const std::string text = strings_text(window);
    ASSERT_EQ(text, reference_strings_text(window)) << "size " << size;
    ASSERT_EQ(text, size >= kMinStringLength ? std::string(size, 'p') + "\n" : "")
        << "size " << size;
  }
}

TEST(StringsReference, AllPrintableMebibyte) {
  Bytes data(1 << 20);
  for (std::size_t i = 0; i < data.size(); ++i) {
    data[i] = static_cast<std::uint8_t>(0x20 + i % 95);
  }
  const std::string text = strings_text(data);
  ASSERT_EQ(text.size(), data.size() + 1);
  ASSERT_EQ(text, reference_strings_text(data));
}

}  // namespace
}  // namespace fhc::elf
