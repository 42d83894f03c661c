// Reference CTPH engine: the straightforward per-level fuzzy hasher that
// `ssdeep::FuzzyHasher` replaced, kept as the oracle its byte-lane
// rewrite is checked against (tests/ssdeep/test_fuzzy_hash_reference.cpp,
// tests/fuzz/fuzz_fuzzy_hash.cpp) and as the baseline of the
// BM_FuzzyHashReference micro-bench.
//
// Each level keeps full 32-bit FNV chunk states in an array of structs and
// the rolling window is a `% 7` ring. Do not optimize or otherwise edit
// this file together with src/ssdeep/: the differential test is only as
// good as this code is unchanged (the FuzzyHash.KnownAnswers table pins
// both to fixed digests).
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <string_view>

#include "ssdeep/digest.hpp"
#include "ssdeep/fnv.hpp"
#include "util/base64.hpp"

namespace fhc::testsupport {

/// spamsum's 7-byte rolling hash with a ring-buffer window.
class ReferenceRollingHash {
 public:
  static constexpr std::size_t kRollingWindow = 7;

  /// Absorbs one byte and returns the updated hash value.
  std::uint32_t update(std::uint8_t c) noexcept {
    h2_ -= h1_;
    h2_ += static_cast<std::uint32_t>(kRollingWindow) * c;
    h1_ += c;
    h1_ -= window_[pos_];
    window_[pos_] = c;
    pos_ = (pos_ + 1) % kRollingWindow;
    h3_ <<= 5;
    h3_ ^= c;
    return sum();
  }

  /// Current hash of the trailing window (0 before any input).
  std::uint32_t sum() const noexcept { return h1_ + h2_ + h3_; }

  void reset() noexcept { *this = ReferenceRollingHash{}; }

 private:
  std::array<std::uint8_t, kRollingWindow> window_{};
  std::uint32_t h1_ = 0;
  std::uint32_t h2_ = 0;
  std::uint32_t h3_ = 0;
  std::size_t pos_ = 0;
};

/// Single-pass, multi-blocksize CTPH engine with one struct per level.
class ReferenceFuzzyHasher {
 public:
  ReferenceFuzzyHasher() { reset(); }

  /// Absorbs a buffer; may be called repeatedly (streaming).
  void update(std::span<const std::uint8_t> data) {
    total_size_ += data.size();
    for (const std::uint8_t c : data) step(c);
  }

  void update(std::string_view text) {
    update(std::span<const std::uint8_t>(
        reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
  }

  /// Produces the digest for everything absorbed so far. Non-destructive.
  ssdeep::FuzzyDigest digest() const {
    // Initial blocksize guess from total size: smallest bs with
    // bs * kSpamsumLength >= total_size.
    std::size_t bi = bh_start_;
    while (blocksize_of(bi) * ssdeep::kSpamsumLength < total_size_ &&
           bi + 1 < ssdeep::kNumBlockhashes) {
      ++bi;
    }
    // Clamp to live levels, then walk down while the digest at the guess is
    // too short to be discriminative.
    if (bi >= bh_end_) bi = bh_end_ - 1;
    while (bi > bh_start_ && levels_[bi].digest.size() < ssdeep::kSpamsumLength / 2) --bi;

    const bool has_tail = roll_.sum() != 0;  // an unfinished chunk is pending

    ssdeep::FuzzyDigest out;
    out.blocksize = static_cast<std::uint32_t>(blocksize_of(bi));
    out.part1 = levels_[bi].digest;
    if (has_tail) out.part1.push_back(fhc::util::base64_char(levels_[bi].h));

    if (bi + 1 < bh_end_) {
      const BlockHash& next = levels_[bi + 1];
      out.part2 = next.halfdigest;
      if (has_tail) out.part2.push_back(fhc::util::base64_char(next.halfh));
    } else if (has_tail && levels_[bi].digest.empty()) {
      // Input too small for even one trigger at this level: mirror part1's
      // single tail character so the digest stays comparable.
      out.part2.push_back(fhc::util::base64_char(levels_[bi].h));
    }
    return out;
  }

  /// Total bytes absorbed.
  std::uint64_t total_size() const noexcept { return total_size_; }

  void reset() {
    for (auto& level : levels_) {
      level.h = ssdeep::kHashInit;
      level.halfh = ssdeep::kHashInit;
      level.digest.clear();
      level.halfdigest.clear();
    }
    levels_[0].digest.reserve(ssdeep::kSpamsumLength);
    bh_start_ = 0;
    bh_end_ = 1;
    total_size_ = 0;
    roll_.reset();
  }

 private:
  struct BlockHash {
    std::uint32_t h = ssdeep::kHashInit;      // chunk hash for part1
    std::uint32_t halfh = ssdeep::kHashInit;  // chunk hash for part2 (2x blocksize)
    std::string digest;                       // up to kSpamsumLength chars
    std::string halfdigest;                   // up to kSpamsumLength / 2 chars
  };

  static constexpr std::uint64_t blocksize_of(std::size_t level) noexcept {
    return static_cast<std::uint64_t>(ssdeep::kMinBlocksize) << level;
  }

  void try_fork_blockhash() {
    if (bh_end_ >= ssdeep::kNumBlockhashes) return;
    // The new level inherits the in-progress chunk hashes of the previous
    // highest level: both have absorbed exactly the same bytes since that
    // level's last emission.
    BlockHash& prev = levels_[bh_end_ - 1];
    BlockHash& next = levels_[bh_end_];
    next.h = prev.h;
    next.halfh = prev.halfh;
    next.digest.clear();
    next.halfdigest.clear();
    ++bh_end_;
  }

  void try_reduce_blockhash() {
    if (bh_end_ - bh_start_ < 2) return;  // need at least two live levels
    // Drop the lowest level only once it can no longer be selected by
    // digest(): the initial blocksize estimate for the current total size
    // already points past it, and the next level has enough characters that
    // the estimate will not be walked back down to this one.
    if (blocksize_of(bh_start_) * ssdeep::kSpamsumLength >= total_size_) return;
    if (levels_[bh_start_ + 1].digest.size() < ssdeep::kSpamsumLength / 2) return;
    ++bh_start_;
  }

  void step(std::uint8_t c) {
    const std::uint32_t h = roll_.update(c);

    for (std::size_t i = bh_start_; i < bh_end_; ++i) {
      levels_[i].h = ssdeep::fnv_step(c, levels_[i].h);
      levels_[i].halfh = ssdeep::fnv_step(c, levels_[i].halfh);
    }

    for (std::size_t i = bh_start_; i < bh_end_; ++i) {
      const std::uint64_t bs = blocksize_of(i);
      // Blocksizes are nested powers of two times kMinBlocksize, so once the
      // trigger fails at one level it fails at every higher level.
      if (h % bs != bs - 1) break;

      if (levels_[i].digest.empty()) {
        // First emission at the currently-highest level: bring the next
        // level to life so it can observe the rest of the stream.
        if (i == bh_end_ - 1) try_fork_blockhash();
      }
      BlockHash& level = levels_[i];
      if (level.digest.size() < ssdeep::kSpamsumLength - 1) {
        // Emit one character and start a fresh chunk. If the digest is full
        // we intentionally do NOT reset, folding the rest of the input into
        // the final character (spamsum's tail-overflow rule).
        level.digest.push_back(fhc::util::base64_char(level.h));
        level.h = ssdeep::kHashInit;
        if (level.halfdigest.size() < ssdeep::kSpamsumLength / 2 - 1) {
          level.halfdigest.push_back(fhc::util::base64_char(level.halfh));
          level.halfh = ssdeep::kHashInit;
        }
      } else {
        try_reduce_blockhash();
      }
    }
  }

  BlockHash levels_[ssdeep::kNumBlockhashes];
  std::size_t bh_start_ = 0;  // first live level
  std::size_t bh_end_ = 1;    // one past last live level
  std::uint64_t total_size_ = 0;
  ReferenceRollingHash roll_;
};

/// One-shot reference digest of a byte buffer.
inline ssdeep::FuzzyDigest reference_fuzzy_hash(std::span<const std::uint8_t> data) {
  ReferenceFuzzyHasher hasher;
  hasher.update(data);
  return hasher.digest();
}

/// One-shot reference digest of text.
inline ssdeep::FuzzyDigest reference_fuzzy_hash(std::string_view text) {
  ReferenceFuzzyHasher hasher;
  hasher.update(text);
  return hasher.digest();
}

}  // namespace fhc::testsupport
