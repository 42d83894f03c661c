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
// initial blocksize guess proves wrong.
//
// Byte lanes. The chunk hashes of all levels live as one byte each in a
// single 64-byte array: level i's part1 state in lane i, its part2 (2x
// blocksize) state in lane kHalfLane + i. A digest character is
// `base64_char(h) = h % 64`, and the low 6 bits of `(h * p) ^ c` depend
// only on the low 6 bits of h, p and c, so a byte of state is exact and
// the multiplier can be 19 (kHashPrime mod 64), a shorter shift-add chain
// than the prime's low byte. Upstream ssdeep's `sum_table` rests on the
// same fact. Every byte updates the lanes of levels [0, kLowLevels), or of
// all levels once bh_end_ passes kLowLevels, in one fixed-count loop the
// compiler vectorizes, live or not. Dead lanes are harmless: a lane below
// bh_start_ is never read again (levels only retire upwards, and reset()
// reinitializes every lane), and a lane at or above bh_end_ is overwritten
// by try_fork_blockhash() with its predecessor's state before it is first
// read, so it need not be updated either.
//
// absorb() keeps the lanes and the rolling hash in locals and tests only
// the trigger at bh_start_'s blocksize per byte; the emit/fork/reduce work
// runs in on_trigger() on the bytes where it fires.
//
// digest() picks the level whose blocksize best matches the total input
// size, preferring smaller blocksizes while their digests are long enough
// to be discriminative (>= kSpamsumLength / 2 characters).
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "ssdeep/digest.hpp"
#include "ssdeep/fnv.hpp"
#include "ssdeep/rolling_hash.hpp"

namespace fhc::ssdeep {

class FuzzyHasher {
 public:
  FuzzyHasher();

  /// Absorbs a buffer; may be called repeatedly (streaming).
  void update(std::span<const std::uint8_t> data);
  void update(std::string_view text);

  /// Produces the digest for everything absorbed so far. Non-destructive:
  /// more input may be absorbed afterwards and digest() called again.
  FuzzyDigest digest() const;

  /// Total bytes absorbed.
  std::uint64_t total_size() const noexcept { return total_size_; }

  void reset();

 private:
  static constexpr std::size_t kLanes = 64;
  static constexpr std::size_t kHalfLane = kLanes / 2;  // part2 lane offset
  // One 16-byte vector of lanes per part. Level kLowLevels (blocksize
  // 196608) comes alive only in inputs of ~100 KB and up.
  static constexpr std::size_t kLowLevels = 16;
  static_assert(kLowLevels <= kNumBlockhashes && kNumBlockhashes <= kHalfLane);
  using Lanes = std::array<std::uint8_t, kLanes>;

  struct BlockDigests {
    std::string digest;      // up to kSpamsumLength chars
    std::string halfdigest;  // up to kSpamsumLength / 2 chars
  };

  static constexpr std::uint64_t blocksize_of(std::size_t level) noexcept {
    return static_cast<std::uint64_t>(kMinBlocksize) << level;
  }

  /// Absorbs bytes from p up to and including the next trigger at
  /// bh_start_'s blocksize, updating the lanes of levels [0, kLevels).
  /// Returns whether the trigger fired, with its rolling hash in h.
  template <std::size_t kLevels>
  bool absorb(const std::uint8_t*& p, const std::uint8_t* end, std::uint32_t& h);
  void on_trigger(std::uint32_t h);
  void try_fork_blockhash();
  void try_reduce_blockhash();

  Lanes lanes_{};  // chunk hashes: part1 in [0, kHalfLane), part2 above
  BlockDigests levels_[kNumBlockhashes];
  std::size_t bh_start_ = 0;  // first live level
  std::size_t bh_end_ = 1;    // one past last live level
  std::uint64_t total_size_ = 0;
  RollingHash roll_;
};

/// One-shot digest of a byte buffer.
FuzzyDigest fuzzy_hash(std::span<const std::uint8_t> data);

/// One-shot digest of text (the strings/symbols feature channels).
FuzzyDigest fuzzy_hash(std::string_view text);

}  // namespace fhc::ssdeep
