// Single-pass, multi-blocksize CTPH engine (the ssdeep/spamsum algorithm).
//
// The engine maintains up to kNumBlockhashes parallel "block hash" levels,
// level i corresponding to blocksize kMinBlocksize << i. Every input byte
// feeds the rolling hash and the per-level FNV chunk hashes; when the
// rolling hash triggers at a level's blocksize the level emits one base64
// character and resets its chunk hash. Levels are forked lazily (a level
// starts existing when the previous one first emits) and retired eagerly
// (a level whose digest is already longer than the final digest could use
// is dropped), so the engine is O(1) memory and a genuinely single pass —
// unlike the original two-pass spamsum which re-reads the input when its
// initial blocksize guess proves wrong. Absorbing allocates nothing: each
// level's digest characters sit in fixed arrays.
//
// Byte lanes. The chunk hashes live as one byte each in a single 64-byte
// array, indexed relative to bh_start_ and interleaved: lane 2j holds the
// part1 state of level bh_start_ + j and lane 2j + 1 its part2 (2x
// blocksize) state. try_reduce_blockhash() shifts the array down two
// bytes when bh_start_ advances. A digest character is
// `base64_char(h) = h % 64`, and the low 6 bits of `(h * p) ^ c` depend
// only on the low 6 bits of h, p and c, so a byte of state is exact and
// the multiplier can be 19 (kHashPrime mod 64), a shorter shift-add chain
// than the prime's low byte. Upstream ssdeep's `sum_table` rests on the
// same fact.
//
// Lane window. absorb<W>() updates lanes [0, 2W) only, W being the
// smallest of 8, 16 and 32 levels that covers the levels still absorbing
// (live and under the cap below): one 16-byte vector in the common case,
// in a fixed-count loop the compiler vectorizes. Lanes outside the window
// or past the live levels are harmless: a lane at or above bh_end_ is
// overwritten by try_fork_blockhash() with its predecessor's state before
// it is first read, and a capped level's lane is never read.
//
// Trigger. Level k fires when `h % bs == bs - 1` with bs = 3 * 2^k, that
// is when bs divides x = h + 1 (computed in 64 bits). With inv3 =
// 0xAAAAAAAAAAAAAAAB, the inverse of 3 mod 2^64, bs divides x exactly when
// `rotr(x * inv3, k) <= ~0 / bs` (Granlund–Montgomery): no division per
// byte. absorb() tests only bh_start_'s blocksize, since every live
// level's blocksize is a multiple of it; the emit/fork/reduce work runs in
// on_trigger() on the bytes where it fires. Once 3 * 2^bh_start_ divides
// x, level i fires exactly when 2^i divides x, i.e. i <= countr_zero(x).
//
// Level cap. The one-shot fuzzy_hash() knows the input size N. Let bi0 be
// the smallest level with blocksize * kSpamsumLength >= N (at most
// kNumBlockhashes - 1). Levels >= bi0 + 2 are neither absorbed nor
// triggered; the result is the uncapped digest, because:
//  - try_reduce_blockhash() advances bh_start_ only while
//    blocksize(bh_start_) * kSpamsumLength < total <= N, so bh_start_ <=
//    bi0 always;
//  - digest() starts its guess at max(bh_start_, bi0) = bi0 and reads
//    only levels bi and bi + 1 with bi <= bi0, all below the cap;
//  - capped levels never emit, so they fork nothing and bh_end_ stops at
//    bi0 + 3 at most; every comparison digest() and try_reduce make
//    (bi >= bh_end_, bi + 1 < bh_end_, bh_end_ - bh_start_ < 2) is against
//    a level <= bi0 + 2, so it comes out as it would uncapped. The lower
//    levels themselves evolve as uncapped: a capped level could only
//    call try_reduce_blockhash() with a full digest, and then every lower
//    level has fired with a full digest and called it already, more times
//    than bh_start_ can still advance below bi0.
// The streaming update() runs uncapped, since more input may follow.
//
// digest() picks the level whose blocksize best matches the total input
// size, preferring smaller blocksizes while their digests are long enough
// to be discriminative (>= kSpamsumLength / 2 characters).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string_view>

#include "ssdeep/digest.hpp"
#include "ssdeep/fnv.hpp"
#include "ssdeep/rolling_hash.hpp"

namespace fhc::ssdeep {

class FuzzyHasher {
 public:
  FuzzyHasher() = default;

  /// Absorbs a buffer; may be called repeatedly (streaming).
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text);

  /// Produces the digest for everything absorbed so far. Non-destructive:
  /// more input may be absorbed afterwards and digest() called again.
  FuzzyDigest digest() const;

  /// Total bytes absorbed.
  std::uint64_t total_size() const noexcept { return total_size_; }

  void reset() { *this = FuzzyHasher(); }

 private:
  friend FuzzyDigest fuzzy_hash(std::span<const std::uint8_t> data);

  static constexpr std::size_t kLanes = 64;  // two per level, 32 levels
  static_assert(2 * kNumBlockhashes <= kLanes);
  static constexpr std::uint8_t kLaneInit = static_cast<std::uint8_t>(kHashInit);
  using Lanes = std::array<std::uint8_t, kLanes>;

  template <std::size_t N>
  struct DigestChars {
    std::array<char, N> chars{};
    std::uint8_t size = 0;
    void push_back(char c) noexcept { chars[size++] = c; }
    std::string_view view() const noexcept { return {chars.data(), size}; }
  };
  struct BlockDigests {
    DigestChars<kSpamsumLength - 1> digest;      // part1 chars at this level
    DigestChars<kSpamsumLength / 2 - 1> halfdigest;  // part2 chars
  };

  static constexpr std::uint64_t blocksize_of(std::size_t level) noexcept {
    return static_cast<std::uint64_t>(kMinBlocksize) << level;
  }
  /// digest()'s initial blocksize guess: the smallest level >= `from`
  /// with blocksize * kSpamsumLength >= `size`, at most the top level.
  static constexpr std::size_t first_guess(std::size_t from, std::uint64_t size) noexcept {
    while (blocksize_of(from) * kSpamsumLength < size && from + 1 < kNumBlockhashes) ++from;
    return from;
  }

  /// Absorbs bytes from p up to and including the next trigger at
  /// bh_start_'s blocksize, updating lanes [0, 2 * kWidth). Returns the
  /// byte after the last one absorbed; the trigger fired if the rolling
  /// hash now fires at bh_start_.
  template <std::size_t kWidth>
  [[gnu::noinline]] const std::uint8_t* absorb(const std::uint8_t* p,
                                               const std::uint8_t* end);
  void on_trigger(std::uint32_t h);
  void try_fork_blockhash();
  void try_reduce_blockhash();
  /// Lane of level `level`'s part1 state; its part2 state is the next lane.
  std::size_t lane_of(std::size_t level) const noexcept {
    return 2 * (level - bh_start_);
  }

  Lanes lanes_ = [] {
    Lanes lanes{};
    lanes.fill(kLaneInit);
    return lanes;
  }();
  std::array<BlockDigests, kNumBlockhashes> levels_{};
  std::size_t bh_start_ = 0;  // first live level
  std::size_t bh_end_ = 1;    // one past last live level
  std::size_t level_cap_ = kNumBlockhashes;  // levels >= this absorb nothing
  std::uint64_t total_size_ = 0;
  RollingHash roll_;
};

/// One-shot digest of a byte buffer (level-capped, see above).
FuzzyDigest fuzzy_hash(std::span<const std::uint8_t> data);

/// One-shot digest of text (the strings/symbols feature channels).
FuzzyDigest fuzzy_hash(std::string_view text);

}  // namespace fhc::ssdeep
