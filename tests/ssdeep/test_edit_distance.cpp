// Edit-distance variants: known values, metric relationships, properties,
// and the bit-parallel scoring kernels checked against their DP oracles.
#include "ssdeep/edit_distance.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "ssdeep/compare.hpp"
#include "support/corpus_digests.hpp"
#include "util/rng.hpp"

namespace fhc::ssdeep {
namespace {

TEST(Levenshtein, KnownValues) {
  EXPECT_EQ(levenshtein("", ""), 0u);
  EXPECT_EQ(levenshtein("abc", "abc"), 0u);
  EXPECT_EQ(levenshtein("abc", ""), 3u);
  EXPECT_EQ(levenshtein("", "abc"), 3u);
  EXPECT_EQ(levenshtein("kitten", "sitting"), 3u);
  EXPECT_EQ(levenshtein("flaw", "lawn"), 2u);
  EXPECT_EQ(levenshtein("abc", "abd"), 1u);
}

TEST(WeightedLevenshtein, SubstitutionCostsTwoByDefault) {
  // ssdeep's edit_distn: replace = delete + insert.
  EXPECT_EQ(weighted_levenshtein("abc", "abd"), 2u);
  EXPECT_EQ(weighted_levenshtein("abc", "abcd"), 1u);
  EXPECT_EQ(weighted_levenshtein("abcd", "abc"), 1u);
  EXPECT_EQ(weighted_levenshtein("abc", "xyz"), 6u);
}

TEST(WeightedLevenshtein, CustomCosts) {
  EXPECT_EQ(weighted_levenshtein("abc", "abd", 1, 1, 1), 1u);  // = Levenshtein
  EXPECT_EQ(weighted_levenshtein("a", "", 1, 5, 2), 5u);       // deletion cost
  EXPECT_EQ(weighted_levenshtein("", "a", 5, 1, 2), 5u);       // insertion cost
}

TEST(WeightedLevenshtein, WorstCaseIsCombinedLength) {
  // With substitution = 2, completely unrelated equal-length strings cost
  // len(a) + len(b) (the denominator of the ssdeep score scaling).
  EXPECT_EQ(weighted_levenshtein("aaaa", "bbbb"), 8u);
}

TEST(DamerauOsa, TranspositionCostsOne) {
  EXPECT_EQ(damerau_levenshtein_osa("ab", "ba"), 1u);
  EXPECT_EQ(levenshtein("ab", "ba"), 2u);  // plain LV pays 2
  EXPECT_EQ(damerau_levenshtein_osa("abcdef", "abdcef"), 1u);
}

TEST(DamerauOsa, PaperEquationCases) {
  // The four edit operations of the paper's Equation (1).
  EXPECT_EQ(damerau_levenshtein_osa("abc", "ab"), 1u);    // deletion
  EXPECT_EQ(damerau_levenshtein_osa("ab", "abc"), 1u);    // insertion
  EXPECT_EQ(damerau_levenshtein_osa("abc", "adc"), 1u);   // substitution
  EXPECT_EQ(damerau_levenshtein_osa("abcd", "acbd"), 1u); // transposition
  EXPECT_EQ(damerau_levenshtein_osa("", ""), 0u);
}

TEST(DamerauOsa, RestrictedVsUnrestricted) {
  // The classic distinguishing case: OSA cannot edit a transposed pair
  // again, the unrestricted (Lowrance-Wagner) distance can.
  EXPECT_EQ(damerau_levenshtein_osa("CA", "ABC"), 3u);
  EXPECT_EQ(damerau_levenshtein_full("CA", "ABC"), 2u);
}

TEST(DamerauFull, MatchesOsaOnSimpleCases) {
  EXPECT_EQ(damerau_levenshtein_full("kitten", "sitting"), 3u);
  EXPECT_EQ(damerau_levenshtein_full("ab", "ba"), 1u);
  EXPECT_EQ(damerau_levenshtein_full("", "xyz"), 3u);
  EXPECT_EQ(damerau_levenshtein_full("same", "same"), 0u);
}

// --- property sweeps over random base64-ish strings ----------------------

std::string random_digest_string(fhc::util::Rng& rng, std::size_t max_len) {
  static constexpr char kAlpha[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  const auto len = static_cast<std::size_t>(rng.next_below(max_len + 1));
  std::string out;
  for (std::size_t i = 0; i < len; ++i) {
    out.push_back(kAlpha[rng.next_below(64)]);
  }
  return out;
}

class EditDistanceProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(EditDistanceProperty, MetricRelationsHold) {
  fhc::util::Rng rng(GetParam());
  for (int round = 0; round < 50; ++round) {
    const std::string a = random_digest_string(rng, 64);
    const std::string b = random_digest_string(rng, 64);
    const auto lev = levenshtein(a, b);
    const auto osa = damerau_levenshtein_osa(a, b);
    const auto full = damerau_levenshtein_full(a, b);
    const auto weighted = weighted_levenshtein(a, b);

    // Adding operations can only help: full <= osa <= lev <= weighted.
    EXPECT_LE(full, osa);
    EXPECT_LE(osa, lev);
    EXPECT_LE(lev, weighted);
    // Bounds.
    EXPECT_LE(osa, std::max(a.size(), b.size()));
    EXPECT_LE(weighted, a.size() + b.size());
    EXPECT_GE(lev, a.size() > b.size() ? a.size() - b.size() : b.size() - a.size());
  }
}

TEST_P(EditDistanceProperty, SymmetryAndIdentity) {
  fhc::util::Rng rng(GetParam() ^ 0xabcd);
  for (int round = 0; round < 50; ++round) {
    const std::string a = random_digest_string(rng, 48);
    const std::string b = random_digest_string(rng, 48);
    EXPECT_EQ(levenshtein(a, b), levenshtein(b, a));
    EXPECT_EQ(damerau_levenshtein_osa(a, b), damerau_levenshtein_osa(b, a));
    EXPECT_EQ(damerau_levenshtein_full(a, b), damerau_levenshtein_full(b, a));
    EXPECT_EQ(levenshtein(a, a), 0u);
    EXPECT_EQ(damerau_levenshtein_osa(a, a), 0u);
    EXPECT_EQ(damerau_levenshtein_full(a, a), 0u);
  }
}

TEST_P(EditDistanceProperty, TriangleInequalityForLevenshtein) {
  fhc::util::Rng rng(GetParam() ^ 0x7777);
  for (int round = 0; round < 30; ++round) {
    const std::string a = random_digest_string(rng, 32);
    const std::string b = random_digest_string(rng, 32);
    const std::string c = random_digest_string(rng, 32);
    EXPECT_LE(levenshtein(a, c), levenshtein(a, b) + levenshtein(b, c));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EditDistanceProperty,
                         ::testing::Values(1, 2, 3, 5, 8, 13));

// --- bit-parallel kernels == DP oracles -----------------------------------

constexpr char kBase64[] =
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

// Both kernels against both DP oracles, with each operand as the pattern.
::testing::AssertionResult kernels_match_dp(std::string_view a, std::string_view b) {
  for (const auto& [p, t] : {std::pair{a, b}, std::pair{b, a}}) {
    const std::size_t osa = damerau_levenshtein_osa_bitparallel(p, t);
    const std::size_t osa_dp = damerau_levenshtein_osa(p, t);
    const std::size_t weighted = weighted_levenshtein_bitparallel(p, t);
    const std::size_t weighted_dp = weighted_levenshtein(p, t);
    if (osa != osa_dp || weighted != weighted_dp) {
      return ::testing::AssertionFailure()
             << ::testing::PrintToString(std::string(p)) << " vs "
             << ::testing::PrintToString(std::string(t)) << ": osa " << osa
             << " (dp " << osa_dp << "), weighted " << weighted << " (dp "
             << weighted_dp << ")";
    }
  }
  return ::testing::AssertionSuccess();
}

std::string random_over(fhc::util::Rng& rng, std::size_t len, std::size_t alphabet) {
  std::string out;
  for (std::size_t i = 0; i < len; ++i) out.push_back(kBase64[rng.next_below(alphabet)]);
  return out;
}

TEST(BitParallelKernels, EveryLengthPairEveryAlphabet) {
  fhc::util::Rng rng(41);
  for (const std::size_t alphabet : {1u, 2u, 3u, 4u, 8u, 16u, 32u, 64u}) {
    for (std::size_t la = 0; la <= 64; ++la) {
      for (std::size_t lb = la; lb <= 64; ++lb) {
        const std::string a = random_over(rng, la, alphabet);
        const std::string b = random_over(rng, lb, alphabet);
        ASSERT_TRUE(kernels_match_dp(a, b)) << "alphabet " << alphabet;
      }
    }
  }
}

TEST(BitParallelKernels, TranspositionHeavyMutations) {
  // Mostly adjacent swaps (some overlapping, e.g. "abc" -> "bca"), plus
  // the odd substitution and indel, over narrow and full alphabets.
  fhc::util::Rng rng(42);
  for (const std::size_t alphabet : {2u, 3u, 4u, 8u, 64u}) {
    for (int round = 0; round < 400; ++round) {
      const std::string a = random_over(rng, 2 + rng.next_below(63), alphabet);
      std::string b = a;
      for (std::size_t edits = 1 + rng.next_below(12); edits > 0; --edits) {
        const std::size_t i = rng.next_below(b.size());
        switch (rng.next_below(8)) {
          case 0:
            b[i] = kBase64[rng.next_below(alphabet)];
            break;
          case 1:
            if (b.size() > 1) b.erase(i, 1);
            break;
          case 2:
            if (b.size() < 64) b.insert(i, 1, kBase64[rng.next_below(alphabet)]);
            break;
          default:
            if (i + 1 < b.size()) std::swap(b[i], b[i + 1]);
            break;
        }
      }
      ASSERT_TRUE(kernels_match_dp(a, b)) << "alphabet " << alphabet;
    }
  }
}

TEST(BitParallelKernels, ArbitraryBytes) {
  // Hand-built digests may hold any byte: the mask table covers all 256,
  // '\0' and '\xff' included.
  fhc::util::Rng rng(43);
  const auto random_bytes = [&](std::size_t len, bool extremes_only) {
    std::string out;
    for (std::size_t i = 0; i < len; ++i) {
      out.push_back(extremes_only ? (rng.next_below(2) == 0 ? '\0' : '\xff')
                                  : static_cast<char>(rng.next_below(256)));
    }
    return out;
  };
  for (int round = 0; round < 1000; ++round) {
    const bool extremes_only = round % 2 == 0;
    const std::string a = random_bytes(rng.next_below(65), extremes_only);
    const std::string b = random_bytes(rng.next_below(65), extremes_only);
    ASSERT_TRUE(kernels_match_dp(a, b));
  }
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(std::string(1, '\0'), "\xff"), 1u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(std::string(1, '\0'), "\xff"), 2u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(std::string("\0\xff", 2),
                                                std::string("\xff\0", 2)),
            1u);
}

TEST(BitParallelKernels, EveryPartPairOfCorpusDigests) {
  std::vector<std::string> parts;
  for (const FuzzyDigest& digest : testsupport::make_corpus_digests()) {
    for (const std::string& part : {digest.part1, digest.part2}) {
      parts.push_back(part);
      parts.push_back(eliminate_long_runs(part));
    }
  }
  for (std::size_t i = 0; i < parts.size(); ++i) {
    for (std::size_t j = i; j < parts.size(); ++j) {
      ASSERT_TRUE(kernels_match_dp(parts[i], parts[j]));
    }
  }
}

TEST(BitParallelKernels, WordEdgeKnownValues) {
  const std::string full(kBase64, 64);  // 64 distinct symbols: bit 63 in use
  ASSERT_EQ(full.size(), kBitParallelMaxPattern);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, ""), 64u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, ""), 64u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, "A"), 63u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, "A"), 63u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, "/"), 63u);  // last symbol
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, "/"), 63u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, "!"), 64u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, "!"), 65u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, full), 0u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, full), 0u);

  std::string swapped_last = full;  // transposition across bits 62-63
  std::swap(swapped_last[62], swapped_last[63]);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, swapped_last), 1u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, swapped_last), 2u);
  std::string swapped_first = full;
  std::swap(swapped_first[0], swapped_first[1]);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, swapped_first), 1u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, swapped_first), 2u);

  const std::string rotated = full.substr(1) + full[0];
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(full, rotated), 2u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(full, rotated), 2u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(std::string(64, 'a'), std::string(64, 'b')),
            64u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(std::string(64, 'a'), std::string(64, 'b')),
            128u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel("", ""), 0u);
  EXPECT_EQ(weighted_levenshtein_bitparallel("", ""), 0u);

  // Past the word the kernels fall back to the DP rather than misbehave.
  const std::string long_pattern = full + "xyz";
  EXPECT_TRUE(kernels_match_dp(long_pattern, full));
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel(long_pattern, full), 3u);
  EXPECT_EQ(weighted_levenshtein_bitparallel(long_pattern, full), 3u);
}

TEST(BitParallelKernels, PrebuiltMasksMatchStringKernelAndDp) {
  // The masks core, fed one pattern's masks built once, against the
  // string_view kernel and the DP on every text length: the shape of a
  // row fill, where one query part is scored against many train parts.
  fhc::util::Rng rng(44);
  for (const std::size_t alphabet : {2u, 64u, 256u}) {
    const auto random_text = [&](std::size_t len) {
      if (alphabet <= 64) return random_over(rng, len, alphabet);
      std::string out;
      for (std::size_t i = 0; i < len; ++i) {
        out.push_back(static_cast<char>(rng.next_below(256)));
      }
      return out;
    };
    for (std::size_t la = 0; la <= 64; ++la) {
      const std::string a = random_text(la);
      MatchMasks masks{};
      build_match_masks(a, masks);
      for (std::size_t lb = 0; lb <= 64; ++lb) {
        const std::string b = random_text(lb);
        const std::size_t osa = damerau_levenshtein_osa_bitparallel(masks, la, b);
        const std::size_t weighted = weighted_levenshtein_bitparallel(masks, la, b);
        ASSERT_EQ(osa, damerau_levenshtein_osa_bitparallel(a, b))
            << "alphabet " << alphabet << ", " << la << " x " << lb;
        ASSERT_EQ(osa, damerau_levenshtein_osa(a, b))
            << "alphabet " << alphabet << ", " << la << " x " << lb;
        ASSERT_EQ(weighted, weighted_levenshtein_bitparallel(a, b))
            << "alphabet " << alphabet << ", " << la << " x " << lb;
        ASSERT_EQ(weighted, weighted_levenshtein(a, b))
            << "alphabet " << alphabet << ", " << la << " x " << lb;
      }
    }
  }
}

TEST(BitParallelKernels, FourLanesMatchOneLaneAndDp) {
  // Lane 0 walks every (pattern length, text length) pair from 0 to 64;
  // lanes 1-3 hold their own patterns and text lengths that move
  // against lane 0's, so the shortest text, and with it the split
  // between the lockstep loop and the per-lane tails, falls at every
  // offset and on every lane. The last round's texts run past 64 chars.
  fhc::util::Rng rng(45);
  struct Lane {
    std::string pattern;
    std::string text;
    MatchMasks masks{};
  };
  const auto check = [](std::array<Lane, 4>& lanes) -> ::testing::AssertionResult {
    FourLanes four;
    for (std::size_t l = 0; l < 4; ++l) {
      lanes[l].masks = {};
      build_match_masks(lanes[l].pattern, lanes[l].masks);
      four[l] = {&lanes[l].masks, lanes[l].pattern.size(), lanes[l].text};
    }
    const std::array<std::size_t, 4> osa = damerau_levenshtein_osa_bitparallel(four);
    const std::array<std::size_t, 4> weighted = weighted_levenshtein_bitparallel(four);
    for (std::size_t l = 0; l < 4; ++l) {
      const Lane& lane = lanes[l];
      const std::size_t m = lane.pattern.size();
      const std::size_t osa_one = damerau_levenshtein_osa_bitparallel(lane.masks, m, lane.text);
      const std::size_t weighted_one =
          weighted_levenshtein_bitparallel(lane.masks, m, lane.text);
      const std::size_t osa_dp = damerau_levenshtein_osa(lane.pattern, lane.text);
      const std::size_t weighted_dp = weighted_levenshtein(lane.pattern, lane.text);
      if (osa[l] != osa_one || osa[l] != osa_dp || weighted[l] != weighted_one ||
          weighted[l] != weighted_dp) {
        return ::testing::AssertionFailure()
               << "lane " << l << ": " << m << " x " << lane.text.size() << ": osa "
               << osa[l] << " (one lane " << osa_one << ", dp " << osa_dp
               << "), weighted " << weighted[l] << " (one lane " << weighted_one
               << ", dp " << weighted_dp << ")";
      }
    }
    return ::testing::AssertionSuccess();
  };

  std::array<Lane, 4> lanes;
  for (std::size_t la = 0; la <= 64; ++la) {
    for (std::size_t lb = 0; lb <= 64; ++lb) {
      const std::size_t alphabet = std::size_t{1} << (1 + (la + lb) % 6);
      lanes[0].pattern = random_over(rng, la, alphabet);
      lanes[0].text = random_over(rng, lb, alphabet);
      for (std::size_t l = 1; l < 4; ++l) {
        lanes[l].pattern = random_over(rng, (la * 7 + l * 13) % 65, alphabet);
        lanes[l].text = random_over(rng, (lb + l * 17) % 65, alphabet);
      }
      ASSERT_TRUE(check(lanes)) << "lane 0 " << la << " x " << lb;
    }
  }

  // Texts past the word: the lockstep and the tails both run past 64.
  for (std::size_t l = 0; l < 4; ++l) {
    lanes[l].pattern = random_over(rng, 64 - 9 * l, 4);
    lanes[l].text = random_over(rng, 70 + 31 * l, 4);
  }
  EXPECT_TRUE(check(lanes));
}

TEST(BitParallelKernels, BackToBackCallsDoNotLeakMasks) {
  // Each call sets the masks of its own pattern and clears them on exit;
  // a leftover 'a' or 'b' bit would corrupt the calls that follow.
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel("ab", "ba"), 1u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel("ba", "ba"), 0u);
  EXPECT_EQ(damerau_levenshtein_osa_bitparallel("xy", "ab"), 2u);
  EXPECT_EQ(weighted_levenshtein_bitparallel("ab", "ba"), 2u);
  EXPECT_EQ(weighted_levenshtein_bitparallel("ba", "ba"), 0u);
  EXPECT_EQ(weighted_levenshtein_bitparallel("xy", "ab"), 4u);
}

}  // namespace
}  // namespace fhc::ssdeep
