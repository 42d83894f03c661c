#include "ssdeep/edit_distance.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

namespace fhc::ssdeep {

std::size_t levenshtein(std::string_view a, std::string_view b) {
  return weighted_levenshtein(a, b, 1, 1, 1);
}

std::size_t weighted_levenshtein(std::string_view a, std::string_view b,
                                 std::size_t insert_cost, std::size_t delete_cost,
                                 std::size_t substitute_cost) {
  // Two-row DP; rows indexed by prefix length of b.
  const std::size_t n = b.size();
  std::vector<std::size_t> prev(n + 1);
  std::vector<std::size_t> curr(n + 1);
  for (std::size_t j = 0; j <= n; ++j) prev[j] = j * insert_cost;

  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i * delete_cost;
    const char ai = a[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      const std::size_t del = prev[j] + delete_cost;
      const std::size_t ins = curr[j - 1] + insert_cost;
      const std::size_t sub = prev[j - 1] + (ai == b[j - 1] ? 0 : substitute_cost);
      curr[j] = std::min({del, ins, sub});
    }
    std::swap(prev, curr);
  }
  return prev[n];
}

std::size_t damerau_levenshtein_osa(std::string_view a, std::string_view b) {
  // Three-row DP: the transposition case looks two rows back.
  const std::size_t n = b.size();
  std::vector<std::size_t> two_back(n + 1);
  std::vector<std::size_t> prev(n + 1);
  std::vector<std::size_t> curr(n + 1);
  for (std::size_t j = 0; j <= n; ++j) prev[j] = j;

  for (std::size_t i = 1; i <= a.size(); ++i) {
    curr[0] = i;
    const char ai = a[i - 1];
    for (std::size_t j = 1; j <= n; ++j) {
      const char bj = b[j - 1];
      std::size_t best = std::min({prev[j] + 1,                       // deletion
                                   curr[j - 1] + 1,                   // insertion
                                   prev[j - 1] + (ai == bj ? 0 : 1)}); // (mis)match
      if (i > 1 && j > 1 && ai == b[j - 2] && a[i - 2] == bj) {
        best = std::min(best, two_back[j - 2] + 1);                   // transposition
      }
      curr[j] = best;
    }
    std::swap(two_back, prev);
    std::swap(prev, curr);
  }
  return prev[n];
}

std::size_t damerau_levenshtein_full(std::string_view a, std::string_view b) {
  // Lowrance–Wagner: full (m+2) x (n+2) table plus per-character last-seen
  // rows. Only used for tests/ablation (digest strings are <= 64 chars), so
  // clarity wins over memory.
  const std::size_t m = a.size();
  const std::size_t n = b.size();
  const std::size_t inf = m + n;  // safe upper bound

  std::vector<std::vector<std::size_t>> d(m + 2, std::vector<std::size_t>(n + 2, inf));
  d[1][1] = 0;
  for (std::size_t i = 0; i <= m; ++i) d[i + 1][1] = i;
  for (std::size_t j = 0; j <= n; ++j) d[1][j + 1] = j;

  std::array<std::size_t, 256> last_row{};  // last row where each char occurred in a

  for (std::size_t i = 1; i <= m; ++i) {
    std::size_t last_col = 0;  // last column in this row where a[i-1] == b[j-1]
    for (std::size_t j = 1; j <= n; ++j) {
      const auto bj = static_cast<unsigned char>(b[j - 1]);
      const std::size_t i1 = last_row[bj];
      const std::size_t j1 = last_col;
      const bool match = a[i - 1] == b[j - 1];
      if (match) last_col = j;

      const std::size_t subst = d[i][j] + (match ? 0 : 1);
      const std::size_t insert = d[i + 1][j] + 1;
      const std::size_t erase = d[i][j + 1] + 1;
      std::size_t transpose = inf;
      if (i1 > 0 && j1 > 0) {
        transpose = d[i1][j1] + (i - i1 - 1) + 1 + (j - j1 - 1);
      }
      d[i + 1][j + 1] = std::min({subst, insert, erase, transpose});
    }
    last_row[static_cast<unsigned char>(a[i - 1])] = i;
  }
  return d[m + 1][n + 1];
}

void build_match_masks(std::string_view pattern, MatchMasks& masks) noexcept {
  for (std::size_t i = 0; i < pattern.size(); ++i) {
    masks[static_cast<unsigned char>(pattern[i])] |= std::uint64_t{1} << i;
  }
}

namespace {

/// The bits of a pattern of `pattern_len` chars (0-64) in one word.
std::uint64_t pattern_bits(std::size_t pattern_len) noexcept {
  return pattern_len < 64 ? (std::uint64_t{1} << pattern_len) - 1 : ~std::uint64_t{0};
}

/// N independent Hyyrö OSA chains, one per lane, stored lane-major per
/// field so that stepping all N lanes is the same word op on N adjacent
/// words, which the compiler can pack into vector registers at the
/// baseline ISA. step(l, pm) advances lane l's DP column by one text
/// character from that character's match mask; finish() reads lane l's
/// distance off its final column.
template <std::size_t N>
struct OsaChains {
  // Vertical deltas of the current DP column (VP: +1, VN: -1); D0 marks
  // the cells whose diagonal delta is 0. Bits above the pattern carry
  // garbage, but carries and shifts only move upward, so the pattern's
  // own bits never see it.
  std::array<std::uint64_t, N> vp;
  std::array<std::uint64_t, N> vn{};
  std::array<std::uint64_t, N> d0{};
  std::array<std::uint64_t, N> pm_prev{};

  OsaChains() noexcept { vp.fill(~std::uint64_t{0}); }

  void step(std::size_t l, std::uint64_t pm_c) noexcept {
    // Transposition: bit i is set when pattern[i-1..i] is the last two
    // text characters swapped and the previous column's row i-1 was not
    // already a zero-delta diagonal (the swap would gain nothing there).
    const std::uint64_t tr = ((~d0[l] & pm_c) << 1) & pm_prev[l];
    d0[l] = (((pm_c & vp[l]) + vp[l]) ^ vp[l]) | pm_c | vn[l] | tr;
    const std::uint64_t hp = ((vn[l] | ~(d0[l] | vp[l])) << 1) | 1;
    const std::uint64_t hn = (d0[l] & vp[l]) << 1;
    vp[l] = hn | ~(d0[l] | hp);
    vn[l] = hp & d0[l];
    pm_prev[l] = pm_c;
  }

  /// D[m][n] = D[0][n] + the column's vertical deltas = n + |VP| - |VN|
  /// over the pattern's bits.
  std::size_t finish(std::size_t l, std::size_t pattern_len,
                     std::size_t text_len) const noexcept {
    const std::uint64_t m = pattern_bits(pattern_len);
    return text_len + static_cast<std::size_t>(std::popcount(vp[l] & m)) -
           static_cast<std::size_t>(std::popcount(vn[l] & m));
  }
};

/// N independent bit-parallel LCS chains (Allison–Dix / Hyyrö), laid
/// out like OsaChains: the zero bits of a lane's `s` within its pattern
/// count the LCS so far.
template <std::size_t N>
struct LcsChains {
  std::array<std::uint64_t, N> s;

  LcsChains() noexcept { s.fill(~std::uint64_t{0}); }

  void step(std::size_t l, std::uint64_t pm_c) noexcept {
    const std::uint64_t u = s[l] & pm_c;
    s[l] = (s[l] + u) | (s[l] - u);
  }

  /// |a| + |b| - 2 * LCS(a, b).
  std::size_t finish(std::size_t l, std::size_t pattern_len,
                     std::size_t text_len) const noexcept {
    const auto lcs =
        static_cast<std::size_t>(std::popcount(~s[l] & pattern_bits(pattern_len)));
    return pattern_len + text_len - 2 * lcs;
  }
};

std::uint64_t mask_of(const MatchMasks& masks, char c) noexcept {
  return masks[static_cast<unsigned char>(c)];
}

template <template <std::size_t> class Chains>
std::size_t run_one(const MatchMasks& pattern_masks, std::size_t pattern_len,
                    std::string_view b) noexcept {
  Chains<1> chain;
  for (const char c : b) chain.step(0, mask_of(pattern_masks, c));
  return chain.finish(0, pattern_len, b.size());
}

/// Four independent chains in one loop: the lanes step in lockstep up to
/// the shortest text, so their dependent chains overlap, then each lane
/// runs its own tail alone.
template <template <std::size_t> class Chains>
std::array<std::size_t, 4> run_four(const FourLanes& lanes) noexcept {
  std::size_t common = lanes[0].text.size();
  for (const BitParallelLane& lane : lanes) common = std::min(common, lane.text.size());
  Chains<4> chains;
  for (std::size_t j = 0; j < common; ++j) {
    std::array<std::uint64_t, 4> pm;
    for (std::size_t l = 0; l < 4; ++l) pm[l] = mask_of(*lanes[l].masks, lanes[l].text[j]);
    for (std::size_t l = 0; l < 4; ++l) chains.step(l, pm[l]);
  }
  std::array<std::size_t, 4> dist{};
  for (std::size_t l = 0; l < 4; ++l) {
    const BitParallelLane& lane = lanes[l];
    for (const char c : lane.text.substr(common)) chains.step(l, mask_of(*lane.masks, c));
    dist[l] = chains.finish(l, lane.pattern_len, lane.text.size());
  }
  return dist;
}

}  // namespace

std::size_t damerau_levenshtein_osa_bitparallel(const MatchMasks& pattern_masks,
                                                std::size_t pattern_len,
                                                std::string_view b) noexcept {
  return run_one<OsaChains>(pattern_masks, pattern_len, b);
}

std::size_t weighted_levenshtein_bitparallel(const MatchMasks& pattern_masks,
                                             std::size_t pattern_len,
                                             std::string_view b) noexcept {
  return run_one<LcsChains>(pattern_masks, pattern_len, b);
}

std::array<std::size_t, 4> damerau_levenshtein_osa_bitparallel(
    const FourLanes& lanes) noexcept {
  return run_four<OsaChains>(lanes);
}

std::array<std::size_t, 4> weighted_levenshtein_bitparallel(
    const FourLanes& lanes) noexcept {
  return run_four<LcsChains>(lanes);
}

namespace {

// Per-thread match-mask table for the string_view kernels. All 256
// entries start zero; PatternMasks sets the pattern's entries for one
// call and zeroes exactly those again, so no allocation and no 2 KiB
// clear per call.
thread_local MatchMasks t_match_masks{};

class PatternMasks {
 public:
  explicit PatternMasks(std::string_view pattern) : pattern_(pattern) {
    build_match_masks(pattern_, t_match_masks);
  }
  ~PatternMasks() {
    for (const char c : pattern_) t_match_masks[static_cast<unsigned char>(c)] = 0;
  }
  PatternMasks(const PatternMasks&) = delete;
  PatternMasks& operator=(const PatternMasks&) = delete;

  const MatchMasks& masks() const noexcept { return t_match_masks; }

 private:
  std::string_view pattern_;
};

}  // namespace

std::size_t damerau_levenshtein_osa_bitparallel(std::string_view a, std::string_view b) {
  if (a.size() > kBitParallelMaxPattern) return damerau_levenshtein_osa(a, b);
  const PatternMasks pm(a);
  return damerau_levenshtein_osa_bitparallel(pm.masks(), a.size(), b);
}

std::size_t weighted_levenshtein_bitparallel(std::string_view a, std::string_view b) {
  if (a.size() > kBitParallelMaxPattern) return weighted_levenshtein(a, b);
  const PatternMasks pm(a);
  return weighted_levenshtein_bitparallel(pm.masks(), a.size(), b);
}

}  // namespace fhc::ssdeep
