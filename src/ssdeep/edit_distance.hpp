// Edit distances for fuzzy-digest comparison.
//
// The paper (Section 3) specifies the Damerau–Levenshtein distance as the
// comparison metric and spells out the recursion we implement in
// damerau_levenshtein_osa(); that recursion is the *optimal string
// alignment* (a.k.a. restricted DL) variant, which never edits a substring
// twice. We additionally provide:
//   * levenshtein()                — classic insert/delete/substitute,
//   * weighted_levenshtein()       — the historical ssdeep/spamsum metric
//                                    (insert/delete cost 1, substitute 2),
//   * damerau_levenshtein_full()   — unrestricted DL (Lowrance–Wagner),
// so the scoring metric is a run-time choice and the variants can be
// compared in tests and benches.
//
// Scoring vs oracles. Digest parts are at most 64 characters, so one
// 64-bit word holds a whole DP column. The scoring path
// (score_strings_pregated in compare.cpp) therefore runs the two
// bit-parallel kernels, *_bitparallel(), which do a few word operations
// per character and never allocate. The DP functions above compute the
// same values by the paper's recursion; they serve ablation, strings of
// any length, and as the test oracles the kernels are checked against
// (tests/ssdeep/test_edit_distance.cpp, fuzz_row_differential).
//
// Each kernel has three entry points. The core takes the pattern's match
// masks prebuilt (MatchMasks), so a caller scoring one pattern against
// many texts builds them once (ssdeep::DigestMasks, held per query by
// core::PreparedQuery). The string_view form is a thin wrapper that
// fills a per-thread table from the pattern and calls the core. The
// four-lane core scores four independent (masks, pattern, text) lanes
// in one loop: one lane's recurrence is a chain of about nine dependent
// word ops per text character, so a single chain is bound by its
// latency, and four chains in lockstep overlap it. The lanes' state is
// kept lane-major per field, so each op of the step is one op on four
// adjacent words, which the compiler packs into vector registers at the
// baseline ISA (no intrinsics, no -march). The lanes step together up
// to the shortest text, then each finishes its own tail. The row fill
// (core::fill_feature_row_slice) scores its candidates four at a time
// through it; the one-lane core takes the leftovers.
//
// Both metrics read the distance off the final DP column rather than
// tracking the last row per character. For OSA the column's vertical
// deltas sum to D[m][n] - D[0][n], so D[m][n] = n + popcount(VP & M) -
// popcount(VN & M), where M covers the pattern's m bits; for the LCS the
// zero bits of the state within M count the common subsequence. The
// one-lane and four-lane cores share one step and one finish per metric,
// so each recurrence is written once.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>

namespace fhc::ssdeep {

/// Classic Levenshtein distance (unit costs).
std::size_t levenshtein(std::string_view a, std::string_view b);

/// Levenshtein with configurable costs. ssdeep's edit_distn uses
/// (insert=1, delete=1, substitute=2), making the worst case |a|+|b| —
/// the denominator of the similarity scaling below.
std::size_t weighted_levenshtein(std::string_view a, std::string_view b,
                                 std::size_t insert_cost = 1,
                                 std::size_t delete_cost = 1,
                                 std::size_t substitute_cost = 2);

/// Damerau–Levenshtein, optimal-string-alignment variant: insertions,
/// deletions, substitutions and transpositions of *adjacent* symbols, with
/// no substring edited more than once. Matches Equation (1) of the paper.
std::size_t damerau_levenshtein_osa(std::string_view a, std::string_view b);

/// Unrestricted Damerau–Levenshtein (Lowrance–Wagner): transposed symbols
/// may be further edited. Distinguishable from OSA on e.g. "CA" vs "ABC"
/// (full: 2, OSA: 3).
std::size_t damerau_levenshtein_full(std::string_view a, std::string_view b);

/// Longest pattern the bit-parallel kernels hold in one machine word.
inline constexpr std::size_t kBitParallelMaxPattern = 64;

/// damerau_levenshtein_osa(a, b) by Hyyrö's bit-vector algorithm (2003):
/// Myers' (1999) Levenshtein bit-vectors plus a transposition term.
/// Bit-parallel only for a.size() <= kBitParallelMaxPattern: `a` is the
/// pattern whose match masks fill the word, so a longer `a` falls back
/// to the DP. `b` may be any length; either may be empty. Never
/// allocates on the bit-parallel path.
std::size_t damerau_levenshtein_osa_bitparallel(std::string_view a, std::string_view b);

/// weighted_levenshtein(a, b) at the default costs (1, 1, 2). There a
/// substitution never beats delete + insert, so the distance is
/// |a| + |b| - 2 * LCS(a, b), and the LCS comes from the Allison–Dix /
/// Hyyrö bit-parallel recurrence. Same length limit, fallback and
/// allocation guarantee as damerau_levenshtein_osa_bitparallel.
std::size_t weighted_levenshtein_bitparallel(std::string_view a, std::string_view b);

/// Match masks of one pattern of at most kBitParallelMaxPattern chars:
/// bit i of entry c is set when pattern[i] == c. 256 entries, because
/// hand-built digests may hold any byte.
using MatchMasks = std::array<std::uint64_t, 256>;

/// ORs `pattern`'s bits into `masks`, which must be all zero for the
/// result to be the pattern's masks. Requires
/// pattern.size() <= kBitParallelMaxPattern.
void build_match_masks(std::string_view pattern, MatchMasks& masks) noexcept;

/// The kernel cores over prebuilt masks: `pattern_masks` holds
/// build_match_masks(a) and `pattern_len` is a.size(), at most
/// kBitParallelMaxPattern. Equal to the string_view forms on (a, b);
/// `b` may be any length.
std::size_t damerau_levenshtein_osa_bitparallel(const MatchMasks& pattern_masks,
                                                std::size_t pattern_len,
                                                std::string_view b) noexcept;
std::size_t weighted_levenshtein_bitparallel(const MatchMasks& pattern_masks,
                                             std::size_t pattern_len,
                                             std::string_view b) noexcept;

/// One lane of a four-lane kernel call: a pattern's prebuilt masks, its
/// length (at most kBitParallelMaxPattern) and the text it is scored
/// against. `masks` must point at build_match_masks of the pattern.
struct BitParallelLane {
  const MatchMasks* masks = nullptr;
  std::size_t pattern_len = 0;
  std::string_view text;
};
using FourLanes = std::array<BitParallelLane, 4>;

/// The four-lane cores: entry i equals the one-lane core on lanes[i].
/// The lanes are independent; any of them may share masks or text, and
/// texts may differ in length and run past 64 chars.
std::array<std::size_t, 4> damerau_levenshtein_osa_bitparallel(
    const FourLanes& lanes) noexcept;
std::array<std::size_t, 4> weighted_levenshtein_bitparallel(
    const FourLanes& lanes) noexcept;

}  // namespace fhc::ssdeep
