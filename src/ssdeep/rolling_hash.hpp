// The context-trigger: spamsum's 7-byte rolling hash.
//
// CTPH ("context triggered piecewise hashing", Kornblum 2006) cuts the
// input into chunks wherever this rolling hash of the last ROLLING_WINDOW
// bytes hits `blocksize - 1 (mod blocksize)`. Because the trigger depends
// only on local content, an insertion or deletion early in the file shifts
// chunk boundaries only locally — the property that makes the final digest
// similarity-preserving.
//
// The hash combines three components exactly as in spamsum:
//   h1 — sum of the window bytes,
//   h2 — position-weighted sum (ROLLING_WINDOW * newest ... 1 * oldest),
//   h3 — a shift-xor accumulator over all bytes seen (mod 2^32).
//
// The window is a 64-bit shift register, newest byte lowest: the byte
// leaving the window is the one kRollingWindow - 1 shifts up, so there is
// no ring index to advance and no store-to-load chain through memory.
#pragma once

#include <cstddef>
#include <cstdint>

namespace fhc::ssdeep {

inline constexpr std::size_t kRollingWindow = 7;

class RollingHash {
 public:
  /// Absorbs one byte and returns the updated hash value.
  std::uint32_t update(std::uint8_t c) noexcept {
    h2_ -= h1_;
    h2_ += static_cast<std::uint32_t>(kRollingWindow) * c;
    h1_ += c;
    h1_ -= static_cast<std::uint8_t>(window_ >> kOldestShift);
    window_ = (window_ << 8) | c;
    h3_ <<= 5;
    h3_ ^= c;
    return sum();
  }

  /// Current hash of the trailing window (0 before any input).
  std::uint32_t sum() const noexcept { return h1_ + h2_ + h3_; }

  void reset() noexcept { *this = RollingHash{}; }

 private:
  static constexpr unsigned kOldestShift = 8 * (kRollingWindow - 1);
  static_assert(kRollingWindow <= 8);

  std::uint64_t window_ = 0;  // last kRollingWindow bytes, newest lowest
  std::uint32_t h1_ = 0;
  std::uint32_t h2_ = 0;
  std::uint32_t h3_ = 0;
};

}  // namespace fhc::ssdeep
