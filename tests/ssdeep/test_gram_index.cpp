// GramIndex / CandidateSet: the inverted 7-gram candidate index must
// return exactly the ids whose indexed gram array intersects the query's
// — the invertibility of the merge-scan gate that the candidate-driven
// feature-row fill rests on.
#include "ssdeep/gram_index.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "ssdeep/compare.hpp"
#include "util/rng.hpp"

namespace fhc::ssdeep {
namespace {

std::string random_digest_chars(std::uint64_t seed, std::size_t n) {
  static constexpr char kAlpha[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  util::Rng rng(seed);
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(kAlpha[rng.next_below(64)]);
  return out;
}

std::vector<std::uint32_t> sorted_ids(const CandidateSet& set) {
  std::vector<std::uint32_t> ids(set.ids().begin(), set.ids().end());
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST(CandidateSet, DedupsAndResets) {
  CandidateSet set;
  set.reset(8);
  set.insert(3, 1);
  set.insert(5, 1);
  set.insert(3, 1);
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{3, 5}));

  set.reset(8);
  EXPECT_TRUE(set.empty());
  set.insert(3, 1);  // a stale stamp from the previous epoch must not block this
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{3}));
}

TEST(CandidateSet, GrowsUniverseAcrossResets) {
  CandidateSet set;
  set.reset(2);
  set.insert(1, 1);
  set.reset(64);
  set.insert(63, 1);
  set.insert(1, 1);
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{1, 63}));
}

TEST(CandidateSet, SortOrdersInsertionOrder) {
  CandidateSet set;
  set.reset(16);
  set.insert(9, 1);
  set.insert(2, 1);
  set.insert(14, 1);
  set.sort();
  ASSERT_EQ(set.ids().size(), 3u);
  EXPECT_EQ(set.ids()[0], 2u);
  EXPECT_EQ(set.ids()[1], 9u);
  EXPECT_EQ(set.ids()[2], 14u);
}

// --- hit bits: which probe side hit each id -----------------------------

TEST(CandidateSet, HitBitsOrAcrossProbes) {
  GramIndex part1;
  GramIndex part2;
  const auto shared = packed_sorted_grams(random_digest_chars(4, 30));
  const auto other = packed_sorted_grams(random_digest_chars(5, 30));
  part1.add(0, shared);  // id 0: hit by both probes below
  part2.add(0, other);
  part1.add(1, shared);  // id 1: only by the part1 probe
  part2.add(2, other);   // id 2: only by the part2 probe
  part1.finalize();
  part2.finalize();

  CandidateSet set;
  set.reset(3);
  part1.collect(shared, set, 1);
  part2.collect(other, set, 2);
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{0, 1, 2}));
  EXPECT_EQ(set.hit_bits(0), 3u);
  EXPECT_EQ(set.hit_bits(1), 1u);
  EXPECT_EQ(set.hit_bits(2), 2u);

  set.insert(1, 1);  // re-inserting a bit it holds changes nothing
  EXPECT_EQ(set.hit_bits(1), 1u);
  EXPECT_EQ(set.ids().size(), 3u);
}

TEST(CandidateSet, ResetClearsHitBits) {
  CandidateSet set;
  set.reset(8);
  set.insert(4, 1);
  set.insert(4, 2);
  ASSERT_EQ(set.hit_bits(4), 3u);
  set.reset(8);
  set.insert(4, 2);  // the previous epoch's bit 0 must not carry over
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{4}));
  EXPECT_EQ(set.hit_bits(4), 2u);
}

TEST(CandidateSet, EpochWrapClearsIdsAndHitBits) {
  CandidateSet set;
  set.reset(8);  // the first epoch: the one the wrap restarts at
  set.insert(5, 2);
  set.insert(6, 3);
  set.wrap_epoch_on_next_reset();
  set.reset(8);
  EXPECT_TRUE(set.empty());
  // Stale stamps of the first epoch would now match again: id 5 would be
  // skipped as already collected, and carry bit 1 into this epoch.
  set.insert(5, 1);
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{5}));
  EXPECT_EQ(set.hit_bits(5), 1u);
  set.insert(6, 2);
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{5, 6}));
  EXPECT_EQ(set.hit_bits(6), 2u);
  set.reset(8);  // and the epoch after the wrap starts clean too
  EXPECT_TRUE(set.empty());
}

TEST(CandidateSet, SortKeepsHitBitsWithTheirIds) {
  CandidateSet set;
  set.reset(16);
  set.insert(9, 1);
  set.insert(2, 2);
  set.insert(14, 3);
  set.insert(7, 2);
  set.insert(9, 2);
  set.sort();
  ASSERT_EQ(set.ids().size(), 4u);
  const std::uint32_t expected_bits[] = {2, 2, 3, 3};  // ids 2, 7, 9, 14
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_EQ(set.hit_bits(set.ids()[i]), expected_bits[i]) << "id " << set.ids()[i];
  }
}

TEST(GramIndex, CollectMatchesBruteForceIntersection) {
  // 40 random digest-part strings; probe with 20 more (some sharing a
  // prefix with an indexed one so real intersections occur).
  std::vector<std::string> parts;
  for (std::uint64_t i = 0; i < 40; ++i) {
    parts.push_back(random_digest_chars(100 + i, 24 + (i % 40)));
  }
  std::vector<std::vector<std::uint64_t>> grams;
  GramIndex index;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    grams.push_back(packed_sorted_grams(parts[i]));
    index.add(static_cast<std::uint32_t>(i), grams.back());
  }
  index.finalize();

  for (std::uint64_t q = 0; q < 20; ++q) {
    std::string probe = q % 2 == 0
                            ? random_digest_chars(500 + q, 30)
                            : parts[q * 2].substr(0, 12) +
                                  random_digest_chars(700 + q, 18);
    const auto probe_grams = packed_sorted_grams(probe);
    CandidateSet set;
    set.reset(parts.size());
    index.collect(probe_grams, set, 1);

    std::set<std::uint32_t> expected;
    for (std::size_t i = 0; i < parts.size(); ++i) {
      if (sorted_grams_intersect(probe_grams, grams[i])) {
        expected.insert(static_cast<std::uint32_t>(i));
      }
    }
    const auto got = sorted_ids(set);
    EXPECT_EQ(std::vector<std::uint32_t>(expected.begin(), expected.end()), got)
        << "probe " << q;
  }
}

TEST(GramIndex, EmptyQueryGramsYieldNoCandidates) {
  GramIndex index;
  const auto grams = packed_sorted_grams(random_digest_chars(1, 32));
  index.add(0, grams);
  index.finalize();
  CandidateSet set;
  set.reset(1);
  index.collect({}, set, 1);  // a part shorter than the window packs no grams
  EXPECT_TRUE(set.empty());
  EXPECT_TRUE(packed_sorted_grams("abcdef").empty());  // 6 chars < window
}

TEST(GramIndex, ShortPartsAreNeverIndexed) {
  GramIndex index;
  index.add(0, packed_sorted_grams("abc"));  // empty gram array
  index.add(1, packed_sorted_grams("ABCDEFGH"));
  index.finalize();
  CandidateSet set;
  set.reset(2);
  index.collect(packed_sorted_grams("ABCDEFGH"), set, 1);
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{1}));
}

TEST(GramIndex, DuplicateGramsProduceOnePosting) {
  // "abcabcabcabcabc..." repeats its 7-grams with period 3.
  std::string repeated;
  for (int i = 0; i < 10; ++i) repeated += "abc";
  const auto grams = packed_sorted_grams(repeated);
  GramIndex index;
  index.add(7, grams);
  index.finalize();
  EXPECT_EQ(index.gram_count(), 3u);     // only 3 distinct 7-grams
  EXPECT_EQ(index.posting_count(), 3u);  // one posting each, not 24

  CandidateSet set;
  set.reset(8);
  index.collect(grams, set, 1);  // duplicated query grams must not re-insert
  EXPECT_EQ(sorted_ids(set), (std::vector<std::uint32_t>{7}));
}

TEST(GramIndex, LifecycleIsEnforced) {
  GramIndex index;
  const auto grams = packed_sorted_grams(random_digest_chars(2, 20));
  CandidateSet set;
  set.reset(1);
  EXPECT_THROW(index.collect(grams, set, 1), std::logic_error);
  index.add(0, grams);
  index.finalize();
  EXPECT_THROW(index.add(1, grams), std::logic_error);
  index.finalize();  // idempotent
  EXPECT_NO_THROW(index.collect(grams, set, 1));
}

TEST(GramIndex, EmptyIndexCollectsNothing) {
  GramIndex index;
  index.finalize();
  EXPECT_EQ(index.gram_count(), 0u);
  CandidateSet set;
  set.reset(0);
  index.collect(packed_sorted_grams(random_digest_chars(3, 40)), set, 1);
  EXPECT_TRUE(set.empty());
}

}  // namespace
}  // namespace fhc::ssdeep
