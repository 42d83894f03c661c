// Filesystem helpers: roundtrips, directory creation, error paths.
#include "util/io_util.hpp"

#include <gtest/gtest.h>

#include <filesystem>

#include <sys/stat.h>
#include <unistd.h>

namespace fhc::util {
namespace {

class IoUtilTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("fhc_io_test_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::filesystem::path dir_;
};

TEST_F(IoUtilTest, WriteReadRoundTripBinary) {
  std::vector<std::uint8_t> data{0x00, 0xff, 0x7f, 0x80, 0x0a, 0x00};
  write_file(dir_ / "blob.bin", std::span<const std::uint8_t>(data));
  EXPECT_EQ(read_file(dir_ / "blob.bin"), data);
}

TEST_F(IoUtilTest, WriteReadRoundTripText) {
  write_file(dir_ / "note.txt", std::string("hello\nworld\n"));
  const auto bytes = read_file(dir_ / "note.txt");
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "hello\nworld\n");
}

TEST_F(IoUtilTest, WriteCreatesParentDirectories) {
  const auto nested = dir_ / "a" / "b" / "c" / "deep.bin";
  write_file(nested, std::string("x"));
  EXPECT_TRUE(std::filesystem::exists(nested));
}

TEST_F(IoUtilTest, WriteTruncatesExisting) {
  write_file(dir_ / "f", std::string("long old content"));
  write_file(dir_ / "f", std::string("new"));
  const auto bytes = read_file(dir_ / "f");
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "new");
}

TEST_F(IoUtilTest, EmptyFileRoundTrips) {
  write_file(dir_ / "empty", std::string(""));
  EXPECT_TRUE(read_file(dir_ / "empty").empty());
}

TEST_F(IoUtilTest, ReadMissingFileThrowsWithPath) {
  try {
    read_file(dir_ / "does-not-exist");
    FAIL() << "expected throw";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("does-not-exist"), std::string::npos);
  }
}

TEST_F(IoUtilTest, ReadRefusesNonRegularFilesWithoutBlocking) {
  // A FIFO with no writer would block an ifstream read forever; /dev/zero
  // never ends; a directory has no bytes. All are refused up front.
  const auto fifo = dir_ / "pipe";
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  for (const std::filesystem::path& path :
       {fifo, std::filesystem::path("/dev/zero"), dir_}) {
    try {
      read_file(path);
      FAIL() << "expected throw for " << path;
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find("not a regular file"), std::string::npos)
          << e.what();
    }
  }
}

TEST_F(IoUtilTest, ReadFollowsSymlinkToRegularFile) {
  write_file(dir_ / "target", std::string("payload"));
  std::filesystem::create_symlink(dir_ / "target", dir_ / "link");
  const auto bytes = read_file(dir_ / "link");
  EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "payload");
}

TEST_F(IoUtilTest, ListFilesRecursiveSorted) {
  write_file(dir_ / "z.txt", std::string("z"));
  write_file(dir_ / "sub" / "a.txt", std::string("a"));
  write_file(dir_ / "sub" / "b.txt", std::string("b"));
  const auto files = list_files(dir_);
  ASSERT_EQ(files.size(), 3u);
  EXPECT_TRUE(std::is_sorted(files.begin(), files.end()));
}

TEST_F(IoUtilTest, ListFilesOnMissingRootIsEmpty) {
  EXPECT_TRUE(list_files(dir_ / "nope").empty());
}

}  // namespace
}  // namespace fhc::util
