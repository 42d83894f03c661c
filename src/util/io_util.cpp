#include "util/io_util.hpp"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <fstream>
#include <stdexcept>

namespace fhc::util {

std::vector<std::uint8_t> read_file(const std::filesystem::path& path) {
  // O_NONBLOCK so opening a FIFO does not wait for a writer; the S_ISREG
  // check then refuses it (and devices, sockets, directories) before a
  // read could block forever or never reach end-of-file.
  const int fd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK | O_CLOEXEC);
  if (fd < 0) throw std::runtime_error("read_file: cannot open " + path.string());
  struct Closer {
    int fd;
    ~Closer() { ::close(fd); }
  } closer{fd};
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    throw std::runtime_error("read_file: cannot stat " + path.string());
  }
  if (!S_ISREG(st.st_mode)) {
    throw std::runtime_error("read_file: not a regular file: " + path.string());
  }
  std::vector<std::uint8_t> data(static_cast<std::size_t>(st.st_size));
  std::size_t got = 0;
  while (got < data.size()) {
    const ssize_t n = ::read(fd, data.data() + got, data.size() - got);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
  }
  if (got != data.size()) {
    throw std::runtime_error("read_file: short read on " + path.string());
  }
  return data;
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
