#include "ssdeep/fuzzy_hash.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>

#include "util/base64.hpp"

namespace fhc::ssdeep {

namespace {

constexpr std::uint64_t kInv3 = 0xAAAAAAAAAAAAAAABull;  // 3 * kInv3 == 1 (mod 2^64)
static_assert(3 * kInv3 == 1);

/// ~0 / blocksize: the largest `rotr(x * kInv3, level)` of a multiple x.
constexpr auto kFireLimit = [] {
  std::array<std::uint64_t, kNumBlockhashes> limits{};
  for (std::size_t level = 0; level < kNumBlockhashes; ++level) {
    limits[level] = ~std::uint64_t{0} / (std::uint64_t{kMinBlocksize} << level);
  }
  return limits;
}();

/// Whether the rolling hash h triggers at `level`: 3 * 2^level divides
/// h + 1.
inline bool fires(std::uint32_t h, std::size_t level) noexcept {
  return std::rotr((std::uint64_t{h} + 1) * kInv3, static_cast<int>(level)) <=
         kFireLimit[level];
}

}  // namespace

void FuzzyHasher::update(std::span<const std::uint8_t> data) {
  total_size_ += data.size();
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  while (p != end) {
    const std::size_t absorbing = std::min(bh_end_, level_cap_) - bh_start_;
    p = absorbing <= 8    ? absorb<8>(p, end)
        : absorbing <= 16 ? absorb<16>(p, end)
                          : absorb<32>(p, end);
    // absorb() stopped at a trigger or at the end; the last byte's hash
    // tells which.
    const std::uint32_t h = roll_.sum();
    if (fires(h, bh_start_)) on_trigger(h);
  }
}

template <std::size_t kWidth>
const std::uint8_t* FuzzyHasher::absorb(const std::uint8_t* p, const std::uint8_t* end) {
  constexpr std::size_t kWindow = 2 * kWidth;
  static_assert(kWindow <= kLanes);
  RollingHash roll = roll_;
  std::array<std::uint8_t, kWindow> lanes{};
  std::memcpy(lanes.data(), lanes_.data(), kWindow);
  const std::size_t k = bh_start_;
  while (p != end) {
    const std::uint8_t c = *p++;
    const std::uint32_t h = roll.update(c);
    for (auto& lane : lanes) {
      lane = static_cast<std::uint8_t>((lane * unsigned{kLanePrime}) ^ c);
    }
    if (fires(h, k)) break;
  }
  std::memcpy(lanes_.data(), lanes.data(), kWindow);
  roll_ = roll;
  return p;
}

void FuzzyHasher::update(std::string_view text) {
  update(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

void FuzzyHasher::try_fork_blockhash() {
  if (bh_end_ >= kNumBlockhashes) return;
  // The new level inherits the in-progress chunk hashes of the previous
  // highest level: both have absorbed exactly the same bytes since that
  // level's last emission.
  const std::size_t prev = lane_of(bh_end_ - 1);
  lanes_[prev + 2] = lanes_[prev];
  lanes_[prev + 3] = lanes_[prev + 1];
  levels_[bh_end_] = BlockDigests{};
  ++bh_end_;
}

void FuzzyHasher::try_reduce_blockhash() {
  if (bh_end_ - bh_start_ < 2) return;  // need at least two live levels
  // Drop the lowest level only once it can no longer be selected by
  // digest(): the initial blocksize estimate for the current total size
  // already points past it, and the next level has enough characters that
  // the estimate will not be walked back down to this one.
  if (blocksize_of(bh_start_) * kSpamsumLength >= total_size_) return;
  if (levels_[bh_start_ + 1].digest.size < kSpamsumLength / 2) return;
  ++bh_start_;
  std::copy(lanes_.begin() + 2, lanes_.end(), lanes_.begin());
}

void FuzzyHasher::on_trigger(std::uint32_t h) {
  // Level bh_start_ fired, so 3 divides h + 1 and level i fires exactly
  // when 2^i does too (blocksizes are nested powers of two times 3).
  const auto last_firing = static_cast<std::size_t>(std::countr_zero(std::uint64_t{h} + 1));
  for (std::size_t i = bh_start_; i <= last_firing && i < std::min(bh_end_, level_cap_); ++i) {
    if (levels_[i].digest.size == 0) {
      // First emission at the currently-highest level: bring the next
      // level to life so it can observe the rest of the stream.
      if (i == bh_end_ - 1) try_fork_blockhash();
    }
    BlockDigests& level = levels_[i];
    if (level.digest.size < kSpamsumLength - 1) {
      // Emit one character and start a fresh chunk. If the digest is full
      // we intentionally do NOT reset, folding the rest of the input into
      // the final character (spamsum's tail-overflow rule).
      const std::size_t lane = lane_of(i);
      level.digest.push_back(fhc::util::base64_char(lanes_[lane]));
      lanes_[lane] = kLaneInit;
      if (level.halfdigest.size < kSpamsumLength / 2 - 1) {
        level.halfdigest.push_back(fhc::util::base64_char(lanes_[lane + 1]));
        lanes_[lane + 1] = kLaneInit;
      }
    } else {
      try_reduce_blockhash();
    }
  }
}

FuzzyDigest FuzzyHasher::digest() const {
  std::size_t bi = first_guess(bh_start_, total_size_);
  // Clamp to live levels, then walk down while the digest at the guess is
  // too short to be discriminative.
  if (bi >= bh_end_) bi = bh_end_ - 1;
  while (bi > bh_start_ && levels_[bi].digest.size < kSpamsumLength / 2) --bi;

  const bool has_tail = roll_.sum() != 0;  // an unfinished chunk is pending
  const std::size_t lane = lane_of(bi);

  FuzzyDigest out;
  out.blocksize = static_cast<std::uint32_t>(blocksize_of(bi));
  out.part1.reserve(kSpamsumLength);
  out.part1 = levels_[bi].digest.view();
  if (has_tail) out.part1.push_back(fhc::util::base64_char(lanes_[lane]));

  if (bi + 1 < bh_end_) {
    out.part2 = levels_[bi + 1].halfdigest.view();
    if (has_tail) out.part2.push_back(fhc::util::base64_char(lanes_[lane + 3]));
  } else if (has_tail && levels_[bi].digest.size == 0) {
    // Input too small for even one trigger at this level: mirror part1's
    // single tail character so the digest stays comparable.
    out.part2.push_back(fhc::util::base64_char(lanes_[lane]));
  }
  return out;
}

FuzzyDigest fuzzy_hash(std::span<const std::uint8_t> data) {
  FuzzyHasher hasher;
  // bi0 + 2, bi0 being digest()'s first guess for this size.
  hasher.level_cap_ = std::min(FuzzyHasher::first_guess(0, data.size()) + 2, kNumBlockhashes);
  hasher.update(data);
  return hasher.digest();
}

FuzzyDigest fuzzy_hash(std::string_view text) {
  return fuzzy_hash(std::span<const std::uint8_t>(
      reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

}  // namespace fhc::ssdeep
