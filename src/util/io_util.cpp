#include "util/io_util.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <initializer_list>
#include <stdexcept>

namespace fhc::util {

namespace {

std::int64_t nanoseconds(const struct timespec& ts) {
  return static_cast<std::int64_t>(ts.tv_sec) * 1'000'000'000 + ts.tv_nsec;
}

FileIdentity identity_of(const struct stat& st) {
  return {static_cast<std::uint64_t>(st.st_dev), static_cast<std::uint64_t>(st.st_ino),
          static_cast<std::int64_t>(st.st_size), nanoseconds(st.st_mtim),
          nanoseconds(st.st_ctim)};
}

}  // namespace

std::size_t FileIdentityHash::operator()(const FileIdentity& id) const noexcept {
  std::uint64_t h = 0;
  for (const std::uint64_t v :
       {id.dev, id.ino, static_cast<std::uint64_t>(id.size),
        static_cast<std::uint64_t>(id.mtime_ns), static_cast<std::uint64_t>(id.ctime_ns)}) {
    h = (h ^ v) * 0x9e3779b97f4a7c15ULL;
    h ^= h >> 32;
  }
  return static_cast<std::size_t>(h);
}

RegularFile::RegularFile(const std::filesystem::path& path) : path_(path) {
  // O_NONBLOCK so opening a FIFO does not wait for a writer; the S_ISREG
  // check then refuses it (and devices, sockets, directories) before a
  // read could block forever or never reach end-of-file.
  fd_ = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd_ < 0) throw std::runtime_error("read_file: cannot open " + path.string());
  struct stat st {};
  const char* refusal = nullptr;
  if (::fstat(fd_, &st) != 0) {
    refusal = "read_file: cannot stat ";
  } else if (!S_ISREG(st.st_mode)) {
    refusal = "read_file: not a regular file: ";
  }
  if (refusal != nullptr) {
    ::close(fd_);  // the destructor does not run for a throwing constructor
    throw std::runtime_error(refusal + path.string());
  }
  identity_ = identity_of(st);
}

RegularFile::~RegularFile() { ::close(fd_); }

FileIdentity RegularFile::current_identity() const {
  struct stat st {};
  if (::fstat(fd_, &st) != 0) {
    throw std::runtime_error("read_file: cannot stat " + path_.string());
  }
  return identity_of(st);
}

std::vector<std::uint8_t> RegularFile::read_all() const {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(identity_.size));
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::pread(fd_, data.data() + got, data.size() - got,
                              static_cast<off_t>(got));
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (got != data.size()) {
    throw std::runtime_error("read_file: short read on " + path_.string());
  }
  return data;
}

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  return RegularFile(path).read_all();
}

void write_file(const std::filesystem::path& path, std::span<const std::uint8_t> data) {
  if (path.has_parent_path()) std::filesystem::create_directories(path.parent_path());
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("write_file: cannot open " + path.string());
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  if (!out) throw std::runtime_error("write_file: short write on " + path.string());
}

void write_file(const std::filesystem::path& path, const std::string& text) {
  write_file(path, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(text.data()), text.size()));
}

std::vector<std::filesystem::path> list_files(const std::filesystem::path& root) {
  std::vector<std::filesystem::path> out;
  if (!std::filesystem::exists(root)) return out;
  for (const auto& entry : std::filesystem::recursive_directory_iterator(root)) {
    if (entry.is_regular_file()) out.push_back(entry.path());
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fhc::util
