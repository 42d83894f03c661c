#include "elf/strings_extract.hpp"

#include <bit>
#include <cstring>

namespace fhc::elf {

namespace {

constexpr std::size_t kBlock = 64;

static_assert(std::endian::native == std::endian::little,
              "printable_mask maps byte j of a loaded word to bit j");

/// Bit i is set iff block[i] is printable ASCII (0x20..0x7e). Portable
/// SWAR over eight 8-byte words: with the top bit of every byte cleared
/// first, the per-byte sums below never carry into the next byte.
std::uint64_t printable_mask(const std::uint8_t* block) noexcept {
  constexpr std::uint64_t kOnes = 0x0101010101010101ULL;
  constexpr std::uint64_t kLow7 = 0x7f * kOnes;
  constexpr std::uint64_t kHigh = 0x80 * kOnes;
  // Multiplying a word of per-byte 0/1 flags by this moves byte j's flag
  // to bit 56 + j; the partial products that reach the top byte are
  // disjoint, so nothing carries into it.
  constexpr std::uint64_t kGather = 0x0102040810204080ULL;
  std::uint64_t mask = 0;
  for (std::size_t w = 0; w < kBlock / 8; ++w) {
    std::uint64_t x = 0;
    std::memcpy(&x, block + 8 * w, sizeof x);
    const std::uint64_t low = x & kLow7;
    const std::uint64_t from_space = (low + 0x60 * kOnes) & ~x;  // 0x20 <= byte < 0x80
    const std::uint64_t below_del = ~(low + kOnes);               // low 7 bits != 0x7f
    const std::uint64_t flags = (from_space & below_del & kHigh) >> 7;
    mask |= ((flags * kGather) >> 56) << (8 * w);
  }
  return mask;
}

/// Appends the qualifying runs of `data` to a text, one 64-byte printable
/// mask at a time. A run that reaches a block's end stays open and is
/// closed by a later block.
class RunScanner {
 public:
  RunScanner(const std::uint8_t* data, std::string& text) : data_(data), text_(text) {}

  /// Scans the block whose first byte is data[base]; bit i of `mask`
  /// says whether data[base + i] is printable.
  void scan(std::size_t base, std::uint64_t mask) {
    if (open_) {
      if (mask == ~std::uint64_t{0}) return;  // the open run spans the block
      const int end = std::countr_one(mask);
      if (base + static_cast<std::size_t>(end) - open_start_ >= kMinStringLength) {
        emit(open_start_, base + static_cast<std::size_t>(end));
      }
      open_ = false;
      mask &= ~std::uint64_t{0} << end;
    }
    // Starts of runs at least 4 long inside the block, plus the start of
    // the run that touches the block's end, which may continue. A block
    // with neither, the common case in code and data sections, costs
    // nothing more.
    std::uint64_t starts = mask & (mask >> 1) & (mask >> 2) & (mask >> 3);
    if (mask >> 63) starts |= std::uint64_t{1} << (64 - std::countl_one(mask));
    while (starts != 0) {
      const int start = std::countr_zero(starts);
      const int end = start + std::countr_one(mask >> start);
      if (end == 64) {
        open_ = true;
        open_start_ = base + static_cast<std::size_t>(start);
        return;
      }
      emit(base + static_cast<std::size_t>(start), base + static_cast<std::size_t>(end));
      starts &= ~std::uint64_t{0} << end;
    }
  }

 private:
  void emit(std::size_t begin, std::size_t end) {
    text_.append(reinterpret_cast<const char*>(data_ + begin), end - begin);
    text_.push_back('\n');
  }

  const std::uint8_t* data_;
  std::string& text_;
  bool open_ = false;
  std::size_t open_start_ = 0;
};

}  // namespace

std::string strings_text(std::span<const std::uint8_t> data) {
  static_assert(kMinStringLength == 4, "RunScanner tests windows of exactly 4 bytes");
  std::string text;
  RunScanner scanner(data.data(), text);
  std::size_t base = 0;
  for (; base + kBlock <= data.size(); base += kBlock) {
    scanner.scan(base, printable_mask(data.data() + base));
  }
  // The final partial block, possibly empty, zero-padded. 0x00 is not
  // printable, so every run, including one still open, ends by data.size().
  std::uint8_t tail[kBlock] = {};
  if (base < data.size()) std::memcpy(tail, data.data() + base, data.size() - base);
  scanner.scan(base, printable_mask(tail));
  return text;
}

}  // namespace fhc::elf
