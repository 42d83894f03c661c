// PreparedDigest: one-time normalization, and the property that matters —
// compare_prepared is score-identical to compare_digests on every pair,
// for both edit metrics.
#include "ssdeep/prepared.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "support/corpus_digests.hpp"
#include "util/rng.hpp"

namespace fhc::ssdeep {
namespace {

void expect_equivalent(const FuzzyDigest& a, const FuzzyDigest& b) {
  const PreparedDigest pa(a);
  const PreparedDigest pb(b);
  for (const auto metric :
       {EditMetric::kDamerauOsa, EditMetric::kWeightedLevenshtein}) {
    EXPECT_EQ(compare_prepared(pa, pb, metric), compare_digests(a, b, metric))
        << a.to_string() << " vs " << b.to_string();
    EXPECT_EQ(compare_prepared(pb, pa, metric), compare_digests(b, a, metric))
        << b.to_string() << " vs " << a.to_string();
  }
}

TEST(PreparedDigest, HoldsNormalizedParts) {
  const auto raw = parse_digest("48:aaaaaaabcdefghij:zzzzzkkkkk");
  ASSERT_TRUE(raw.has_value());
  const PreparedDigest prepared(*raw);
  EXPECT_EQ(prepared.blocksize(), 48u);
  EXPECT_EQ(prepared.part1().text, eliminate_long_runs(raw->part1));
  EXPECT_EQ(prepared.part2().text, eliminate_long_runs(raw->part2));
  EXPECT_TRUE(std::is_sorted(prepared.part1().grams.begin(),
                             prepared.part1().grams.end()));
  // "zzzzzkkkkk" normalizes to "zzzkkk" (6 chars) — below the 7-gram window.
  EXPECT_TRUE(prepared.part2().grams.empty());
}

TEST(PackedGrams, GateMatchesHasCommonSubstring) {
  static constexpr char kAlpha[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  fhc::util::Rng rng(21);
  for (int round = 0; round < 200; ++round) {
    std::string a;
    std::string b;
    for (std::size_t i = 0, n = rng.next_below(20); i < n; ++i) {
      a.push_back(kAlpha[rng.next_below(64)]);
    }
    for (std::size_t i = 0, n = rng.next_below(20); i < n; ++i) {
      b.push_back(kAlpha[rng.next_below(16)]);  // narrow alphabet: collisions
    }
    if (rng.next_below(2) == 0 && a.size() >= 8 && b.size() >= 8) {
      b.replace(0, 8, a.substr(0, 8));  // force a shared window sometimes
    }
    EXPECT_EQ(sorted_grams_intersect(packed_sorted_grams(a), packed_sorted_grams(b)),
              has_common_substring(a, b))
        << a << " vs " << b;
  }
}

TEST(ComparePrepared, EquivalentOnRealCorpus) {
  const std::vector<FuzzyDigest> digests = testsupport::make_corpus_digests();
  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i; j < digests.size(); ++j) {
      expect_equivalent(digests[i], digests[j]);
    }
  }
}

TEST(ComparePrepared, EquivalentOnEdgeDigests) {
  const std::string max1(kSpamsumLength, 'a');
  const std::string alt = [] {
    std::string s;
    for (std::size_t i = 0; i < kSpamsumLength; ++i) {
      s.push_back(static_cast<char>('A' + (i * 7) % 26));
    }
    return s;
  }();
  std::vector<FuzzyDigest> digests;
  for (const char* text : {
           "3::",                                       // both parts empty
           "3:abc:",                                    // sub-window part
           "3::UVWXYZabcdefg",                          // part1 empty only
           "48:aaaaaaaaaaaaaaaabbbbbbbbcdefghij:zzzzzzzzyyyyyyyyxxxxxxxx",
           "48:ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnop:ABCDEFGHIJKLMNOP",
           "96:ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnop:qrstuv",  // adjacent bs
           "96:qqqqqqqqqqqqqqqqqqqqqqqqqqqqqqwww:ABCDEFGHIJKLMNOP",
           "192:ABCDEFGHIJKLMNOP:ponmlkjihgfedcba",     // two steps up
       }) {
    const auto digest = parse_digest(text);
    ASSERT_TRUE(digest.has_value()) << text;
    digests.push_back(*digest);
  }
  // Max-length parts and the top blocksize (hand-built: parse_digest
  // cannot produce part1 == part2 views this large at 3 << 30 cheaply).
  digests.push_back(FuzzyDigest{3, max1, std::string(kSpamsumLength / 2, 'a')});
  digests.push_back(FuzzyDigest{3, alt, alt.substr(0, kSpamsumLength / 2)});
  digests.push_back(FuzzyDigest{3u << 30, alt, alt.substr(0, 32)});
  digests.push_back(FuzzyDigest{3u << 29, alt.substr(16), alt});
  // Overlong run-free part1 (hand-built only): must score 0 everywhere —
  // including against an identical digest, where the == 100 fast path is
  // excluded so that "shares a 7-gram" stays necessary for score > 0
  // (the GramIndex invariant; overlong parts pack no grams).
  digests.push_back(FuzzyDigest{6, alt + "0", alt.substr(0, 16)});

  for (std::size_t i = 0; i < digests.size(); ++i) {
    for (std::size_t j = i; j < digests.size(); ++j) {
      expect_equivalent(digests[i], digests[j]);
    }
  }
  // Self-compare of the overlong digest: part1 is excluded from the
  // == 100 fast path (and scores 0 as overlong); with no part2 the whole
  // compare is 0 — identically in the raw and prepared paths.
  const FuzzyDigest overlong{6, alt + "0", ""};
  EXPECT_EQ(compare_digests(overlong, overlong), 0);
  EXPECT_EQ(compare_prepared(PreparedDigest(overlong), PreparedDigest(overlong)), 0);
}

TEST(ComparePrepared, KnownScores) {
  const auto digest = parse_digest("96:abcdefghijklmnop:qrstuvwx");
  ASSERT_TRUE(digest.has_value());
  const PreparedDigest prepared(*digest);
  EXPECT_EQ(compare_prepared(prepared, prepared), 100);

  const auto far = parse_digest("3:abcdefghijklmnop:abcdefghijklmnop");
  ASSERT_TRUE(far.has_value());
  EXPECT_EQ(compare_prepared(prepared, PreparedDigest(*far)), 0);  // 32x apart
}

}  // namespace
}  // namespace fhc::ssdeep
