#include "ssdeep/prepared.hpp"

#include <algorithm>
#include <atomic>

namespace fhc::ssdeep {

namespace {

std::atomic<std::uint64_t> g_prepared_count{0};

PreparedPart prepare_part(std::string_view raw) {
  PreparedPart part;
  part.text = eliminate_long_runs(raw);
  part.grams = packed_sorted_grams(part.text);
  return part;
}

// Mirrors score_strings on prepared parts: same rejection order (overlong,
// empty, gate), then the shared post-gate scoring. The overlong check only
// fires for hand-built digests — parse_digest and fuzzy_hash never exceed
// kSpamsumLength — but equivalence must hold for those too.
int score_parts(const PreparedPart& a, const PreparedPart& b,
                std::uint32_t blocksize, EditMetric metric) {
  if (a.text.size() > kSpamsumLength || b.text.size() > kSpamsumLength) return 0;
  if (a.text.empty() || b.text.empty()) return 0;
  if (!sorted_grams_intersect(a.grams, b.grams)) return 0;
  return score_strings_pregated(a.text, b.text, blocksize, metric);
}

}  // namespace

std::uint64_t prepared_digest_count() noexcept {
  return g_prepared_count.load(std::memory_order_relaxed);
}

PreparedDigest::PreparedDigest(const FuzzyDigest& raw)
    : blocksize_(raw.blocksize),
      part1_(prepare_part(raw.part1)),
      part2_(prepare_part(raw.part2)) {
  g_prepared_count.fetch_add(1, std::memory_order_relaxed);
}

int compare_prepared(const PreparedDigest& a, const PreparedDigest& b,
                     EditMetric metric) {
  const std::uint32_t bs1 = a.blocksize();
  const std::uint32_t bs2 = b.blocksize();
  if (!blocksizes_can_pair(bs1, bs2)) return 0;

  if (bs1 == bs2) {
    // Mirrors compare_digests' fast path, including the overlong
    // exclusion that keeps "shares a 7-gram" necessary for score > 0.
    if (a.part1().text == b.part1().text && a.part1().text.size() > kRollingWindow &&
        a.part1().text.size() <= kSpamsumLength) {
      return 100;
    }
    const int s1 = score_parts(a.part1(), b.part1(), bs1, metric);
    const int s2 = score_parts(a.part2(), b.part2(), part2_blocksize(bs1), metric);
    return std::max(s1, s2);
  }
  if (bs1 == std::uint64_t{bs2} * 2) {
    // a's part1 lives at the same blocksize as b's part2.
    return score_parts(a.part1(), b.part2(), bs1, metric);
  }
  // bs2 == bs1 * 2
  return score_parts(a.part2(), b.part1(), bs2, metric);
}

DigestMasks::DigestMasks(const PreparedTextView& digest) {
  if (digest.part1.size() <= kBitParallelMaxPattern) {
    build_match_masks(digest.part1, part1);
  }
  if (digest.part2.size() <= kBitParallelMaxPattern) {
    build_match_masks(digest.part2, part2);
  }
}

PregatedPairs pregated_pairs(const PreparedTextView& own,
                             const DigestMasks& own_masks,
                             const PreparedTextView& other,
                             std::uint32_t hit_bits) noexcept {
  const std::uint32_t bs1 = own.blocksize;
  const std::uint32_t bs2 = other.blocksize;
  const bool hit1 = (hit_bits & kHitPart1) != 0;
  const bool hit2 = (hit_bits & kHitPart2) != 0;
  PregatedPairs out;
  const auto add = [&out](const MatchMasks& masks, std::string_view a,
                          std::string_view b, std::uint32_t blocksize) {
    out.pairs[out.count++] = {&masks, a, b, blocksize};
  };

  if (bs1 == bs2) {
    // compare_prepared's fast path. Identical part1 texts of 8-64 chars
    // share every gram, so they always come with bit 0, and under bit 0
    // the part is at most kSpamsumLength long.
    if (hit1 && own.part1 == other.part1 && own.part1.size() > kRollingWindow) {
      out.identical = true;
      return out;
    }
    if (hit1) add(own_masks.part1, own.part1, other.part1, bs1);
    if (hit2) add(own_masks.part2, own.part2, other.part2, part2_blocksize(bs1));
  } else if (bs1 == std::uint64_t{bs2} * 2) {
    // own's part1 lives at the same blocksize as other's part2.
    if (hit1) add(own_masks.part1, own.part1, other.part2, bs1);
  } else if (bs2 == std::uint64_t{bs1} * 2) {
    if (hit2) add(own_masks.part2, own.part2, other.part1, bs2);
  }
  return out;
}

int compare_prepared_pregated(const PreparedTextView& own,
                              const DigestMasks& own_masks,
                              const PreparedTextView& other,
                              std::uint32_t hit_bits, EditMetric metric) {
  const PregatedPairs p = pregated_pairs(own, own_masks, other, hit_bits);
  if (p.identical) return 100;
  int best = 0;
  for (std::uint32_t i = 0; i < p.count; ++i) {
    const PartPair& pair = p.pairs[i];
    best = std::max(best, score_strings_pregated(*pair.own_masks, pair.own,
                                                 pair.other, pair.blocksize, metric));
  }
  return best;
}

}  // namespace fhc::ssdeep
