// CTPH engine: digest structure, determinism, streaming, and the
// similarity-preservation property the whole system rests on.
#include "ssdeep/fuzzy_hash.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "corpus/app_spec.hpp"
#include "corpus/synth_app.hpp"
#include "elf/strings_extract.hpp"
#include "elf/symbols_extract.hpp"
#include "ssdeep/compare.hpp"
#include "util/rng.hpp"

namespace fhc::ssdeep {
namespace {

std::string random_text(std::uint64_t seed, std::size_t length) {
  fhc::util::Rng rng(seed);
  std::string out;
  out.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    out.push_back(static_cast<char>('a' + rng.next_below(26)));
  }
  return out;
}

TEST(FuzzyHash, EmptyInputYieldsMinimalDigest) {
  const FuzzyDigest digest = fuzzy_hash(std::string_view{});
  EXPECT_EQ(digest.blocksize, kMinBlocksize);
  EXPECT_TRUE(digest.part1.empty());
  EXPECT_TRUE(digest.part2.empty());
  EXPECT_EQ(digest.to_string(), "3::");
}

TEST(FuzzyHash, DeterministicAcrossCalls) {
  const std::string text = random_text(1, 10000);
  EXPECT_EQ(fuzzy_hash(text).to_string(), fuzzy_hash(text).to_string());
}

TEST(FuzzyHash, StreamingEqualsOneShot) {
  const std::string text = random_text(2, 9123);
  for (const std::size_t cut : {std::size_t{1}, std::size_t{100}, std::size_t{9122}}) {
    FuzzyHasher hasher;
    hasher.update(std::string_view(text).substr(0, cut));
    hasher.update(std::string_view(text).substr(cut));
    EXPECT_EQ(hasher.digest().to_string(), fuzzy_hash(text).to_string())
        << "cut at " << cut;
  }
}

TEST(FuzzyHash, ByteAtATimeEqualsOneShot) {
  const std::string text = random_text(3, 2048);
  FuzzyHasher hasher;
  for (const char c : text) hasher.update(std::string_view(&c, 1));
  EXPECT_EQ(hasher.digest().to_string(), fuzzy_hash(text).to_string());
}

TEST(FuzzyHash, DigestIsNonDestructive) {
  const std::string text = random_text(4, 4096);
  FuzzyHasher hasher;
  hasher.update(std::string_view(text).substr(0, 2048));
  (void)hasher.digest();  // mid-stream digest must not disturb state
  hasher.update(std::string_view(text).substr(2048));
  EXPECT_EQ(hasher.digest().to_string(), fuzzy_hash(text).to_string());
}

TEST(FuzzyHash, ResetClearsState) {
  FuzzyHasher hasher;
  hasher.update(random_text(5, 5000));
  hasher.reset();
  EXPECT_EQ(hasher.total_size(), 0u);
  hasher.update("abc");
  EXPECT_EQ(hasher.digest().to_string(), fuzzy_hash(std::string("abc")).to_string());
}

TEST(FuzzyHash, PartLengthsWithinSpec) {
  for (std::uint64_t seed = 0; seed < 8; ++seed) {
    const auto digest = fuzzy_hash(random_text(seed, 1000 << seed));
    EXPECT_LE(digest.part1.size(), kSpamsumLength);
    EXPECT_LE(digest.part2.size(), kSpamsumLength / 2);
    EXPECT_TRUE(valid_blocksize(digest.blocksize));
  }
}

TEST(FuzzyHash, BlocksizeGrowsWithInput) {
  const auto small = fuzzy_hash(random_text(7, 1000));
  const auto large = fuzzy_hash(random_text(7, 400000));
  EXPECT_LT(small.blocksize, large.blocksize);
}

TEST(FuzzyHash, DigestParsesBack) {
  const auto digest = fuzzy_hash(random_text(9, 30000));
  const auto reparsed = parse_digest(digest.to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(*reparsed, digest);
}

TEST(FuzzyHash, TotalSizeTracksInput) {
  FuzzyHasher hasher;
  hasher.update("12345");
  hasher.update("678");
  EXPECT_EQ(hasher.total_size(), 8u);
}

// Fixed digests, recorded from the per-level engine before the byte-lane
// rewrite. The differential test (test_fuzzy_hash_reference.cpp) and every
// bit-identity check downstream compare two runs of code that could drift
// together; this table pins the algorithm itself.
TEST(FuzzyHash, KnownAnswers) {
  struct Case {
    std::string name;
    std::vector<std::uint8_t> input;
    const char* digest;
  };
  const auto bytes = [](std::string_view text) {
    return std::vector<std::uint8_t>(text.begin(), text.end());
  };
  std::vector<Case> cases = {
      {"empty", {}, "3::"},
      {"abc", bytes("abc"), "3:uG:uG"},
      // The rolling hash of a zero run stays 0: no trigger and no tail.
      {"64 KiB of zeros", std::vector<std::uint8_t>(64 * 1024, 0), "3::"},
  };

  fhc::util::Rng rng(20);
  std::vector<std::uint8_t> noise(1 << 20);
  for (auto& b : noise) b = static_cast<std::uint8_t>(rng.next_below(256));
  cases.push_back({"1 MiB Rng(20) stream", std::move(noise),
                   "24576:jLatoQGa8uqKwzihg090ne8kvjREpj1VuGNE4PPGOqRSS8:"
                   "viHwJkak+j1Vut2mb8"});

  struct Sample {
    const char* app;
    std::size_t image_size;
    const char* file;
    const char* strings;
    const char* symbols;
  };
  const Sample samples[] = {
      {"HMMER", 71648,
       "1536:Lr6ZGthIrcxTdFYehftG6mKi1OOsXBvdo1Bbhwy6:BqWdFXFk6mK8OOw/Ul",
       "192:gWsPHfrm1lB7FmRT3GyL5tpOX9iTlRnSzwEWSO4o/gh9MhfVHTEe6kN14YCRUSyJ:"
       "gWQ6p+zWXonqwCo/wqdwXk1UA9of6d",
       "96:0nkN14pNQ5kBQfGUSy/5Fv5UIh94IaO+L9JcfqmF1IyQ3G:"
       "QkN14YCRUSy/5FRf9tf+L9Jcfqw1DkG"},
      {"Velvet", 100200,
       "1536:43EjkVzYQR4joavl07OteIgiTU/x/UC+nixD3iA98RUW7JiJUOPEtuo:"
       "40jY0QRkN06UI7T6/r+iMA98Z7JYguo",
       "192:ensmSaqD0IB7FmRT3GJSW2VxDiTQliOTjlJUS/5FjYfv/FHcUfHad:"
       "KVqxp+z1Wq2iTBuv5cM6d",
       "96:01US/5FjYAemdc/UA3H+BJcJW/UcaR5S6DdFw3:6US/5FjYfv/FHcUfg"},
  };
  for (const Sample& sample : samples) {
    const corpus::AppClassSpec* spec =
        corpus::find_class(corpus::paper_app_classes(), sample.app);
    ASSERT_NE(spec, nullptr) << sample.app;
    std::vector<std::uint8_t> image = corpus::SampleSynthesizer(*spec, 42).build(1, 0);
    // A different image means the corpus generator moved, not the hasher.
    ASSERT_EQ(image.size(), sample.image_size) << sample.app;
    const std::string app = sample.app;
    cases.push_back({app + " strings", bytes(elf::strings_text(image)), sample.strings});
    cases.push_back({app + " symbols", bytes(elf::global_text_symbols_text(image)),
                     sample.symbols});
    cases.push_back({app + " file", std::move(image), sample.file});
  }

  for (const Case& c : cases) {
    EXPECT_EQ(fuzzy_hash(c.input).to_string(), c.digest) << c.name;
  }
}

// --- similarity preservation (the CTPH promise) --------------------------

TEST(FuzzySimilarity, IdenticalInputsScoreHundred) {
  const std::string text = random_text(11, 20000);
  EXPECT_EQ(compare_digests(fuzzy_hash(text), fuzzy_hash(text)), 100);
}

TEST(FuzzySimilarity, SmallEditKeepsHighScore) {
  std::string text = random_text(12, 20000);
  auto original = fuzzy_hash(text);
  text.insert(10000, "INSERTED CHUNK");
  text[500] = 'X';
  const int score = compare_digests(original, fuzzy_hash(text));
  EXPECT_GE(score, 60) << "local edits must keep most chunks intact";
}

TEST(FuzzySimilarity, PrependShiftsButPreservesChunks) {
  // The signature property of *context-triggered* chunking: content-defined
  // boundaries realign after an insertion at the very front.
  const std::string text = random_text(13, 30000);
  const std::string shifted = "a prefix that offsets everything" + text;
  EXPECT_GE(compare_digests(fuzzy_hash(text), fuzzy_hash(shifted)), 55);
}

TEST(FuzzySimilarity, UnrelatedInputsScoreLow) {
  const auto a = fuzzy_hash(random_text(14, 20000));
  const auto b = fuzzy_hash(random_text(15, 20000));
  EXPECT_LE(compare_digests(a, b), 30);
}

TEST(FuzzySimilarity, HalfSharedContentScoresBetween) {
  const std::string shared = random_text(16, 10000);
  const std::string a = shared + random_text(17, 10000);
  const std::string b = shared + random_text(18, 10000);
  const int score = compare_digests(fuzzy_hash(a), fuzzy_hash(b));
  EXPECT_GT(score, 15);
  EXPECT_LT(score, 90);
}

// Parameterized sweep: replacing a progressively larger *contiguous* block
// degrades the score monotonically. (Scattered point mutations are the
// adversarial case for CTPH — one flip per chunk zeroes the score — which
// is why the sweep uses block replacement, the pattern real binaries show:
// a recompiled function here, a new string there.)
class MutationSweep : public ::testing::TestWithParam<double> {};

TEST_P(MutationSweep, BiggerReplacedBlockLowerScore) {
  const double fraction = GetParam();
  const std::string base = random_text(21, 30000);
  std::string mutated = base;
  const auto block = static_cast<std::size_t>(fraction * 30000);
  mutated.replace(4000, block, random_text(99, block));
  const int score = compare_digests(fuzzy_hash(base), fuzzy_hash(mutated));
  if (fraction <= 0.02) {
    EXPECT_GE(score, 60);
  } else if (fraction >= 0.7) {
    EXPECT_LE(score, 45);
  } else {
    EXPECT_GT(score, 10);
    EXPECT_LT(score, 100);
  }
}

INSTANTIATE_TEST_SUITE_P(Fractions, MutationSweep,
                         ::testing::Values(0.01, 0.1, 0.3, 0.8));

}  // namespace
}  // namespace fhc::ssdeep
