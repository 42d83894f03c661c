#include "ssdeep/fuzzy_hash.hpp"

#include "util/base64.hpp"

namespace fhc::ssdeep {

namespace {

constexpr std::uint8_t kLaneInit = static_cast<std::uint8_t>(kHashInit);

}  // namespace

FuzzyHasher::FuzzyHasher() { reset(); }

void FuzzyHasher::reset() {
  lanes_.fill(kLaneInit);
  for (auto& level : levels_) {
    level.digest.clear();
    level.halfdigest.clear();
  }
  levels_[0].digest.reserve(kSpamsumLength);
  bh_start_ = 0;
  bh_end_ = 1;
  total_size_ = 0;
  roll_.reset();
}

void FuzzyHasher::update(std::span<const std::uint8_t> data) {
  total_size_ += data.size();
  const std::uint8_t* p = data.data();
  const std::uint8_t* const end = p + data.size();
  while (p != end) {
    std::uint32_t h = 0;
    // Until bh_end_ passes kLowLevels, levels kLowLevels and up are dead.
    const bool fired = bh_end_ <= kLowLevels ? absorb<kLowLevels>(p, end, h)
                                             : absorb<kHalfLane>(p, end, h);
    if (fired) on_trigger(h);
  }
}

template <std::size_t kLevels>
bool FuzzyHasher::absorb(const std::uint8_t*& p, const std::uint8_t* end,
                         std::uint32_t& h) {
  // Every live level's blocksize is a multiple of bh_start_'s, so no
  // level triggers unless this one does.
  RollingHash roll = roll_;
  Lanes lanes = lanes_;
  const std::uint64_t bs = blocksize_of(bh_start_);
  bool fired = false;
  while (p != end) {
    const std::uint8_t c = *p++;
    h = roll.update(c);
    for (std::size_t part = 0; part < kLanes; part += kHalfLane) {
      for (std::size_t i = part; i < part + kLevels; ++i) {
        lanes[i] = static_cast<std::uint8_t>((lanes[i] * unsigned{kLanePrime}) ^ c);
      }
    }
    if (h % bs == bs - 1) {
      fired = true;
      break;
    }
  }
  lanes_ = lanes;
  roll_ = roll;
  return fired;
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
  lanes_[bh_end_] = lanes_[bh_end_ - 1];
  lanes_[kHalfLane + bh_end_] = lanes_[kHalfLane + bh_end_ - 1];
  levels_[bh_end_].digest.clear();
  levels_[bh_end_].halfdigest.clear();
  ++bh_end_;
}

void FuzzyHasher::try_reduce_blockhash() {
  if (bh_end_ - bh_start_ < 2) return;  // need at least two live levels
  // Drop the lowest level only once it can no longer be selected by
  // digest(): the initial blocksize estimate for the current total size
  // already points past it, and the next level has enough characters that
  // the estimate will not be walked back down to this one.
  if (blocksize_of(bh_start_) * kSpamsumLength >= total_size_) return;
  if (levels_[bh_start_ + 1].digest.size() < kSpamsumLength / 2) return;
  ++bh_start_;
}

void FuzzyHasher::on_trigger(std::uint32_t h) {
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
    BlockDigests& level = levels_[i];
    if (level.digest.size() < kSpamsumLength - 1) {
      // Emit one character and start a fresh chunk. If the digest is full
      // we intentionally do NOT reset, folding the rest of the input into
      // the final character (spamsum's tail-overflow rule).
      level.digest.push_back(fhc::util::base64_char(lanes_[i]));
      lanes_[i] = kLaneInit;
      if (level.halfdigest.size() < kSpamsumLength / 2 - 1) {
        level.halfdigest.push_back(fhc::util::base64_char(lanes_[kHalfLane + i]));
        lanes_[kHalfLane + i] = kLaneInit;
      }
    } else {
      try_reduce_blockhash();
    }
  }
}

FuzzyDigest FuzzyHasher::digest() const {
  // Initial blocksize guess from total size: smallest bs with
  // bs * kSpamsumLength >= total_size.
  std::size_t bi = bh_start_;
  while (blocksize_of(bi) * kSpamsumLength < total_size_ && bi + 1 < kNumBlockhashes) {
    ++bi;
  }
  // Clamp to live levels, then walk down while the digest at the guess is
  // too short to be discriminative.
  if (bi >= bh_end_) bi = bh_end_ - 1;
  while (bi > bh_start_ && levels_[bi].digest.size() < kSpamsumLength / 2) --bi;

  const bool has_tail = roll_.sum() != 0;  // an unfinished chunk is pending

  FuzzyDigest out;
  out.blocksize = static_cast<std::uint32_t>(blocksize_of(bi));
  out.part1 = levels_[bi].digest;
  if (has_tail) out.part1.push_back(fhc::util::base64_char(lanes_[bi]));

  if (bi + 1 < bh_end_) {
    out.part2 = levels_[bi + 1].halfdigest;
    if (has_tail) out.part2.push_back(fhc::util::base64_char(lanes_[kHalfLane + bi + 1]));
  } else if (has_tail && levels_[bi].digest.empty()) {
    // Input too small for even one trigger at this level: mirror part1's
    // single tail character so the digest stays comparable.
    out.part2.push_back(fhc::util::base64_char(lanes_[bi]));
  }
  return out;
}

FuzzyDigest fuzzy_hash(std::span<const std::uint8_t> data) {
  FuzzyHasher hasher;
  hasher.update(data);
  return hasher.digest();
}

FuzzyDigest fuzzy_hash(std::string_view text) {
  FuzzyHasher hasher;
  hasher.update(text);
  return hasher.digest();
}

}  // namespace fhc::ssdeep
