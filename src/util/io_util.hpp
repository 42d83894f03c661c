// Filesystem helpers with explicit error reporting (exceptions carry the
// offending path). Used by Corpus::materialize(), the examples and the
// daemon's CLASSIFY path.
#pragma once

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <vector>

namespace fhc::util {

/// The stat identity of a file: device, inode, size, and modification
/// and change times in nanoseconds. Equal identities mean "the same
/// bytes" unless someone wrote through a shared mapping without a
/// ctime update. ctime is part of it because a file's owner can reset
/// mtime with utimensat but cannot reset ctime: every write, truncate,
/// chmod or rename-over moves it forward.
struct FileIdentity {
  std::uint64_t dev = 0;
  std::uint64_t ino = 0;
  std::int64_t size = 0;
  std::int64_t mtime_ns = 0;
  std::int64_t ctime_ns = 0;

  bool operator==(const FileIdentity&) const = default;
};

struct FileIdentityHash {
  std::size_t operator()(const FileIdentity& id) const noexcept;
};

/// A regular file open for reading: the one open/fstat/read loop behind
/// read_file(). The constructor throws std::runtime_error when the path
/// cannot be opened or is not a regular file (a FIFO would otherwise
/// block the caller forever, a device never reach end-of-file); nothing
/// is read until read_all().
class RegularFile {
 public:
  explicit RegularFile(const std::filesystem::path& path);
  ~RegularFile();

  RegularFile(const RegularFile&) = delete;
  RegularFile& operator=(const RegularFile&) = delete;

  /// The identity fstat reported at open.
  const FileIdentity& identity() const noexcept { return identity_; }

  /// fstat of the open descriptor now; differs from identity() when the
  /// file changed after it was opened.
  FileIdentity current_identity() const;

  /// Reads identity().size bytes from offset 0. Throws on a short read
  /// (the file shrank).
  std::vector<std::uint8_t> read_all() const;

 private:
  std::filesystem::path path_;
  int fd_ = -1;
  FileIdentity identity_;
};

/// Reads an entire regular file into memory. Throws std::runtime_error on
/// failure, and for anything that is not a regular file.
std::vector<std::uint8_t> read_file(const std::filesystem::path& path);

/// Writes `data` to `path`, creating parent directories. Throws on failure.
void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> data);
void write_file(const std::filesystem::path& path, const std::string& text);

/// Recursively lists regular files under `root`, sorted for determinism.
std::vector<std::filesystem::path> list_files(const std::filesystem::path& root);

}  // namespace fhc::util
