// Sectioned model container: the generic binary envelope behind the
// binary classifier model format.
//
// A container is an 8-byte caller-chosen magic, a section table, and the
// section payloads:
//
//   offset 0   magic[8]
//   offset 8   u32 section_count
//   offset 12  u32 reserved (zero)
//   offset 16  u64 table_checksum        (FNV-1a 64 over bytes [0, 16)
//                                         then the raw entries)
//   offset 24  section_count x 32-byte entries:
//                char tag[8]  (NUL-padded)
//                u64 offset   (from file start, 64-byte aligned)
//                u64 size     (bytes, may be zero)
//                u64 checksum (FNV-1a 64 over the section bytes)
//   ...        payloads, each at its 64-byte-aligned offset, zero padding
//              between them, emitted in table order without overlap.
//
// The point of the envelope is zero-copy attach: every section lands
// 64-byte aligned in the file, so an mmap of the whole container hands
// each consumer (FlatForest, the TrainIndex pools) a span it can use in
// place. SectionedView::attach validates the table shape — magic, bounds,
// alignment, ordering, table checksum — so a truncated or bit-flipped
// table is a clean error, never UB; verify_checksums() extends that to
// the payload bytes (a streaming pass, still far cheaper than any
// rebuild). Like the forest image, the container is little-endian and
// not an interchange format: it is written and read by the same
// toolchain.
//
// SectionedWriter::write_file carries the crash discipline a daemon
// mmap'ing the model needs: write a sibling temp file, fsync it, rename
// over the target, then fsync the directory — a torn or half-flushed
// model can never appear under the real name.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace fhc::util {

/// The container's integrity primitive: FNV-1a-style mixing over 8-byte
/// little-endian lanes (tail zero-padded, total length folded in last),
/// continuing from `state` (pass the default to start fresh). One
/// multiply per 8 bytes keeps the mandatory verify pass on the RELOAD
/// path at memory-bandwidth-ish speed instead of byte-serial FNV's
/// ~1 GB/s. Not standard FNV-1a; like the rest of the container it is
/// written and read by the same toolchain.
std::uint64_t checksum64(std::span<const std::byte> bytes,
                         std::uint64_t state = 0xcbf29ce484222325ull) noexcept;

/// One section-table entry as it sits in the file.
struct SectionEntry {
  std::array<char, 8> tag{};  // NUL-padded
  std::uint64_t offset = 0;
  std::uint64_t size = 0;
  std::uint64_t checksum = 0;

  std::string_view tag_view() const noexcept;
};
static_assert(sizeof(SectionEntry) == 32);

class SectionedWriter {
 public:
  /// `magic` must be exactly 8 characters.
  explicit SectionedWriter(std::string_view magic);

  /// Appends a section referencing caller-owned bytes; they must stay
  /// alive until the final write_to/write_file. Tags are 1..8 chars,
  /// unique within one container.
  void add(std::string_view tag, std::span<const std::byte> bytes);

  /// Appends a section from a copy owned by the writer — for small
  /// metadata blocks built on the stack.
  void add_copy(std::string_view tag, std::span<const std::byte> bytes);

  /// Total container size in bytes if written now.
  std::size_t total_size() const noexcept;

  void write_to(std::ostream& out) const;

  /// Atomic, torn-write-safe emission: write `path + ".tmp"`, fsync it,
  /// rename over `path`, fsync the containing directory. A crash at any
  /// point leaves either the old complete file or the new complete file.
  void write_file(const std::string& path) const;

 private:
  std::array<char, 8> magic_{};
  struct Pending {
    std::array<char, 8> tag{};
    std::span<const std::byte> bytes;
  };
  std::vector<Pending> sections_;
  std::vector<std::vector<std::byte>> owned_;  // backing for add_copy
};

/// Read-only, zero-copy view of a container. Holds spans into the bytes
/// it was attached to; the caller keeps those bytes alive (typically via
/// the util::ModelMap keepalive chain).
class SectionedView {
 public:
  SectionedView() = default;

  /// Validates the envelope (magic, counts, table checksum, per-section
  /// bounds / 64-byte alignment / table-order non-overlap) and returns a
  /// view. Throws std::runtime_error on any malformed input; never reads
  /// out of bounds. `bytes.data()` must be 8-byte aligned (mmap and any
  /// new[]-backed buffer are).
  static SectionedView attach(std::span<const std::byte> bytes,
                              std::string_view magic);

  std::span<const SectionEntry> entries() const noexcept { return entries_; }

  /// Section payload by tag; throws std::runtime_error when absent.
  std::span<const std::byte> section(std::string_view tag) const;

  /// Section payload by tag, or an empty nullopt-like: {data=nullptr}.
  /// Returns true and sets `out` when found.
  bool find(std::string_view tag, std::span<const std::byte>& out) const noexcept;

  /// Recomputes every section checksum against the table. Throws
  /// std::runtime_error naming the first mismatching tag.
  void verify_checksums() const;

  std::span<const std::byte> bytes() const noexcept { return bytes_; }

 private:
  std::span<const std::byte> bytes_;
  std::span<const SectionEntry> entries_;
};

/// Typed view of a section: the payload reinterpreted as a span of POD
/// `T`. Throws when the size is not a multiple of sizeof(T) or the
/// payload is misaligned for T (cannot happen for 64-byte-aligned
/// sections of types with alignment <= 64, but checked anyway).
template <class T>
std::span<const T> section_as(const SectionedView& view, std::string_view tag) {
  static_assert(std::is_trivially_copyable_v<T>);
  const std::span<const std::byte> raw = view.section(tag);
  if (raw.size() % sizeof(T) != 0) {
    throw std::runtime_error("sectioned: section '" + std::string(tag) +
                             "' size not a multiple of element size");
  }
  if (reinterpret_cast<std::uintptr_t>(raw.data()) % alignof(T) != 0) {
    throw std::runtime_error("sectioned: section '" + std::string(tag) +
                             "' misaligned");
  }
  return {reinterpret_cast<const T*>(raw.data()), raw.size() / sizeof(T)};
}

}  // namespace fhc::util
