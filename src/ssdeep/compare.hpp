// Digest comparison: maps two fuzzy digests to a similarity score in
// [0, 100] (0 = no similarity, 100 = near-identical), following the
// ssdeep/spamsum comparison pipeline:
//
//   1. blocksize compatibility — digests are comparable only when their
//      blocksizes are equal or differ by exactly one power of two (each
//      digest carries parts at bs and 2*bs precisely to widen this window);
//   2. long-run normalization — runs of > 3 identical characters are
//      collapsed (they carry little information and inflate matches);
//   3. common 7-gram gate — if the two parts share no substring of
//      kRollingWindow characters the score is 0; this both suppresses
//      coincidental matches and acts as the fast path that rejects most
//      cross-class pairs before the edit distance;
//   4. edit distance, scaled to [0, 100] and capped for small blocksizes
//      (short digests of tiny inputs match too easily). Parts are at most
//      64 chars, so it runs as a bit-parallel kernel, one 64-bit word per
//      DP column and a few word operations per character (Hyyrö's OSA
//      bit-vectors, or bit-parallel LCS for the weighted metric; see
//      edit_distance.hpp, whose DP functions are the kernels' oracles).
//
// The edit-distance metric is selectable: the paper specifies
// Damerau–Levenshtein (our default); ssdeep's historical metric is the
// weighted Levenshtein. Both are available for ablation.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "ssdeep/digest.hpp"
#include "ssdeep/edit_distance.hpp"
#include "ssdeep/rolling_hash.hpp"

namespace fhc::ssdeep {

enum class EditMetric {
  kDamerauOsa,           // paper's Equation (1); default
  kWeightedLevenshtein,  // classic ssdeep (ins/del 1, subst 2)
};

/// Similarity of two digests in [0, 100]. Returns 0 for incompatible
/// blocksizes. `metric` selects the edit distance.
int compare_digests(const FuzzyDigest& a, const FuzzyDigest& b,
                    EditMetric metric = EditMetric::kDamerauOsa);

/// Convenience: parse-and-compare two "bs:p1:p2" strings; returns -1 when
/// either digest is malformed (distinguishable from a legitimate 0).
int compare_digest_strings(std::string_view a, std::string_view b,
                           EditMetric metric = EditMetric::kDamerauOsa);

// --- building blocks, exposed for unit tests, benches and the prepared
// --- path (prepared.hpp) ------------------------------------------------

/// True when digests at these blocksizes are comparable: equal or exactly
/// one power of two apart. The doubling is done in 64 bits — `bs * 2`
/// overflows uint32 at the top blocksize (3 << 30) and would otherwise
/// silently mis-pair digests.
bool blocksizes_can_pair(std::uint32_t a, std::uint32_t b) noexcept;

/// Blocksize of a digest's part2 (2 * bs), saturated to uint32 so the top
/// blocksize cannot wrap. Only the small-blocksize score cap reads this
/// value, so saturation is semantically neutral.
constexpr std::uint32_t part2_blocksize(std::uint32_t bs) noexcept {
  return bs > 0xffffffffu / 2 ? 0xffffffffu : bs * 2;
}

/// Collapses runs of more than 3 identical characters to exactly 3.
std::string eliminate_long_runs(std::string_view s);

/// True if the strings share any substring of kRollingWindow (7) chars.
bool has_common_substring(std::string_view a, std::string_view b);

/// Sorted array of the 42-bit-packed 7-grams of `s` (empty when `s` is
/// shorter than the window) — the precomputable half of
/// has_common_substring, stored by PreparedDigest.
std::vector<std::uint64_t> packed_sorted_grams(std::string_view s);

/// Merge-scan intersection test over two sorted gram arrays; equivalent to
/// has_common_substring on the strings they were packed from.
bool sorted_grams_intersect(std::span<const std::uint64_t> a,
                            std::span<const std::uint64_t> b) noexcept;

/// Core scoring of two digest parts that were produced at `blocksize`.
/// Inputs are expected to be already run-normalized.
int score_strings(std::string_view a, std::string_view b, std::uint32_t blocksize,
                  EditMetric metric);

/// score_strings with the common-substring gate already established by the
/// caller (e.g. via sorted_grams_intersect on precomputed grams). Both
/// inputs must be non-empty, at most kSpamsumLength chars, run-normalized:
/// the bit-parallel kernels take `a` as their one-word pattern.
int score_strings_pregated(std::string_view a, std::string_view b,
                           std::uint32_t blocksize, EditMetric metric);

/// score_strings_pregated with `a`'s match masks prebuilt: `a_masks`
/// holds build_match_masks(a). Same preconditions; the scorer for one
/// query part against many train parts.
int score_strings_pregated(const MatchMasks& a_masks, std::string_view a,
                           std::string_view b, std::uint32_t blocksize,
                           EditMetric metric);

/// The post-kernel half of score_strings_pregated: the edit distance
/// `dist` between parts of `a_len` and `b_len` chars, produced at
/// `blocksize`, as a similarity in [0, 100]. For callers that run the
/// kernels themselves (the row fill's four-lane scoring).
int score_distance(std::size_t dist, std::size_t a_len, std::size_t b_len,
                   std::uint32_t blocksize, EditMetric metric) noexcept;

}  // namespace fhc::ssdeep
