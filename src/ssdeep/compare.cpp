#include "ssdeep/compare.hpp"

#include <algorithm>
#include <array>
#include <cstddef>
#include <utility>

#include "ssdeep/edit_distance.hpp"
#include "util/base64.hpp"

namespace fhc::ssdeep {

namespace {

// 6-bit index of each base64 character (255 for non-alphabet bytes); the
// packing in has_common_substring must be injective on the alphabet, which
// a plain `c & 0x3f` is not ('p' and '0' collide).
constexpr std::array<std::uint8_t, 256> make_b64_index() {
  std::array<std::uint8_t, 256> table{};
  for (auto& entry : table) entry = 255;
  for (std::size_t i = 0; i < fhc::util::kBase64Alphabet.size(); ++i) {
    table[static_cast<unsigned char>(fhc::util::kBase64Alphabet[i])] =
        static_cast<std::uint8_t>(i);
  }
  return table;
}

constexpr std::array<std::uint8_t, 256> kB64Index = make_b64_index();

}  // namespace

bool blocksizes_can_pair(std::uint32_t a, std::uint32_t b) noexcept {
  const std::uint64_t bs1 = a;
  const std::uint64_t bs2 = b;
  return bs1 == bs2 || bs1 == bs2 * 2 || bs2 == bs1 * 2;
}

std::string eliminate_long_runs(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  std::size_t run = 0;
  char prev = '\0';
  for (const char c : s) {
    run = (c == prev) ? run + 1 : 1;
    prev = c;
    if (run <= 3) out.push_back(c);
  }
  return out;
}

namespace {

// Digest characters are base64, i.e. 6 bits each, so a 7-gram packs
// exactly into 42 bits of a uint64 — compare packed integers instead of
// substrings. Digests are at most 64 chars, so arrays stay tiny and a
// sort + merge-scan beats hashing.
std::pair<std::array<std::uint64_t, kSpamsumLength>, std::size_t> pack_grams(
    std::string_view s) {
  std::array<std::uint64_t, kSpamsumLength> grams{};
  std::size_t count = 0;
  std::uint64_t packed = 0;
  constexpr std::uint64_t mask = (1ULL << 42) - 1;
  for (std::size_t i = 0; i < s.size(); ++i) {
    packed = ((packed << 6) | kB64Index[static_cast<unsigned char>(s[i])]) & mask;
    if (i + 1 >= kRollingWindow) grams[count++] = packed;
  }
  return {grams, count};
}

}  // namespace

bool has_common_substring(std::string_view a, std::string_view b) {
  if (a.size() < kRollingWindow || b.size() < kRollingWindow) return false;
  // Digest parts never exceed kSpamsumLength, but this is a public entry
  // point and pack_grams writes into a fixed 64-slot array.
  if (a.size() > kSpamsumLength || b.size() > kSpamsumLength) return false;
  auto [ga, na] = pack_grams(a);
  auto [gb, nb] = pack_grams(b);
  std::sort(ga.begin(), ga.begin() + static_cast<std::ptrdiff_t>(na));
  std::sort(gb.begin(), gb.begin() + static_cast<std::ptrdiff_t>(nb));
  return sorted_grams_intersect({ga.data(), na}, {gb.data(), nb});
}

std::vector<std::uint64_t> packed_sorted_grams(std::string_view s) {
  if (s.size() < kRollingWindow || s.size() > kSpamsumLength) return {};
  auto [grams, count] = pack_grams(s);
  std::sort(grams.begin(), grams.begin() + static_cast<std::ptrdiff_t>(count));
  return {grams.begin(), grams.begin() + static_cast<std::ptrdiff_t>(count)};
}

bool sorted_grams_intersect(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept {
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) return true;
    if (a[i] < b[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  return false;
}

int score_strings(std::string_view a, std::string_view b, std::uint32_t blocksize,
                  EditMetric metric) {
  if (a.size() > kSpamsumLength || b.size() > kSpamsumLength) return 0;
  if (a.empty() || b.empty()) return 0;
  if (!has_common_substring(a, b)) return 0;
  return score_strings_pregated(a, b, blocksize, metric);
}

int score_distance(std::size_t dist, std::size_t a_len, std::size_t b_len,
                   std::uint32_t blocksize, EditMetric metric) noexcept {
  // Scale the distance by its worst case, then onto [0, 100]. The worst
  // case depends on the metric: the weighted Levenshtein (substitution
  // cost 2) can reach len(a)+len(b) — spamsum's original denominator —
  // while the unit-cost Damerau-OSA maxes at max(len(a), len(b)); using
  // the combined length there would floor every gated score near 50.
  const std::size_t worst = metric == EditMetric::kDamerauOsa
                                ? std::max(a_len, b_len)
                                : a_len + b_len;
  std::size_t score = dist * kSpamsumLength / worst;
  score = 100 * score / kSpamsumLength;
  if (score >= 100) return 0;
  score = 100 - score;

  // Small-blocksize cap: digests of tiny inputs are short, and short
  // strings that share a 7-gram would otherwise score spuriously high.
  const std::uint32_t threshold =
      static_cast<std::uint32_t>((99 + kRollingWindow) / kRollingWindow) * kMinBlocksize;
  if (blocksize < threshold) {
    const std::size_t cap =
        static_cast<std::size_t>(blocksize) / kMinBlocksize * std::min(a_len, b_len);
    score = std::min(score, cap);
  }
  return static_cast<int>(score);
}

int score_strings_pregated(std::string_view a, std::string_view b,
                           std::uint32_t blocksize, EditMetric metric) {
  const std::size_t dist = metric == EditMetric::kDamerauOsa
                               ? damerau_levenshtein_osa_bitparallel(a, b)
                               : weighted_levenshtein_bitparallel(a, b);
  return score_distance(dist, a.size(), b.size(), blocksize, metric);
}

int score_strings_pregated(const MatchMasks& a_masks, std::string_view a,
                           std::string_view b, std::uint32_t blocksize,
                           EditMetric metric) {
  const std::size_t dist =
      metric == EditMetric::kDamerauOsa
          ? damerau_levenshtein_osa_bitparallel(a_masks, a.size(), b)
          : weighted_levenshtein_bitparallel(a_masks, a.size(), b);
  return score_distance(dist, a.size(), b.size(), blocksize, metric);
}

int compare_digests(const FuzzyDigest& a, const FuzzyDigest& b, EditMetric metric) {
  const std::uint32_t bs1 = a.blocksize;
  const std::uint32_t bs2 = b.blocksize;
  if (!blocksizes_can_pair(bs1, bs2)) return 0;

  const std::string a1 = eliminate_long_runs(a.part1);
  const std::string a2 = eliminate_long_runs(a.part2);
  const std::string b1 = eliminate_long_runs(b.part1);
  const std::string b2 = eliminate_long_runs(b.part2);

  if (bs1 == bs2) {
    // Identical digests of non-trivial length are a perfect match; the
    // edit-distance score would otherwise cap just below 100 for short
    // strings. Overlong parts (> kSpamsumLength, hand-built digests only)
    // are excluded so they uniformly score 0, like every other scoring
    // path treats them — and so a shared 7-gram remains a necessary
    // condition for any score > 0 (the invariant the GramIndex candidate
    // probe inverts).
    if (a1 == b1 && a1.size() > kRollingWindow && a1.size() <= kSpamsumLength) {
      return 100;
    }
    const int s1 = score_strings(a1, b1, bs1, metric);
    const int s2 = score_strings(a2, b2, part2_blocksize(bs1), metric);
    return std::max(s1, s2);
  }
  if (bs1 == std::uint64_t{bs2} * 2) {
    // a's part1 lives at the same blocksize as b's part2.
    return score_strings(a1, b2, bs1, metric);
  }
  // bs2 == bs1 * 2
  return score_strings(a2, b1, bs2, metric);
}

int compare_digest_strings(std::string_view a, std::string_view b, EditMetric metric) {
  const auto da = parse_digest(a);
  const auto db = parse_digest(b);
  if (!da || !db) return -1;
  return compare_digests(*da, *db, metric);
}

}  // namespace fhc::ssdeep
