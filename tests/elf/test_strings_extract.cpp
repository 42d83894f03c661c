// The `strings`(1) equivalent.
#include "elf/strings_extract.hpp"

#include <gtest/gtest.h>

#include <string>
#include <vector>

namespace fhc::elf {
namespace {

std::vector<std::uint8_t> bytes(std::initializer_list<int> values) {
  std::vector<std::uint8_t> out;
  for (const int v : values) out.push_back(static_cast<std::uint8_t>(v));
  return out;
}

std::vector<std::uint8_t> from_string(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(ExtractStrings, FindsRunsOfFourOrMore) {
  const auto data = bytes({'a', 'b', 'c', 'd', 0, 'x', 'y', 0});
  EXPECT_EQ(strings_text(data), "abcd\n");
}

TEST(ExtractStrings, RespectsMinLength) {
  EXPECT_EQ(kMinStringLength, 4u);
  EXPECT_EQ(strings_text(from_string("abc")), "");
  EXPECT_EQ(strings_text(from_string("abcd")), "abcd\n");
}

TEST(ExtractStrings, RunAtBufferEndIsEmitted) {
  EXPECT_EQ(strings_text(from_string("tail-run")), "tail-run\n");
}

TEST(ExtractStrings, SplitsOnNonPrintable) {
  const auto data = bytes({'f', 'i', 'r', 's', 't', 0x01, 's', 'e', 'c', 'o', 'n', 'd'});
  EXPECT_EQ(strings_text(data), "first\nsecond\n");
}

TEST(ExtractStrings, SpacesAndPunctuationArePrintable) {
  const auto data = from_string("usage: %s [options] <input>");
  EXPECT_EQ(strings_text(data), "usage: %s [options] <input>\n");
}

TEST(ExtractStrings, HighBitBytesTerminateRuns) {
  const auto data = bytes({'a', 'b', 'c', 'd', 0x80, 0xff, 'e', 'f', 'g', 'h'});
  EXPECT_EQ(strings_text(data), "abcd\nefgh\n");
}

TEST(ExtractStrings, TabTerminatesRuns) {
  // GNU strings counts '\t' as printable and would print one line; this
  // engine keeps 0x20..0x7e only (see strings_extract.hpp).
  EXPECT_EQ(strings_text(from_string("abcd\tefgh")), "abcd\nefgh\n");
}

TEST(ExtractStrings, EmptyInput) {
  EXPECT_TRUE(strings_text({}).empty());
}

TEST(StringsText, JoinsWithNewlines) {
  const auto data = bytes({'o', 'n', 'e', '1', 0, 't', 'w', 'o', '2', 0});
  EXPECT_EQ(strings_text(data), "one1\ntwo2\n");
}

TEST(StringsText, DeterministicOrderMatchesFileOrder) {
  const auto data = bytes({'z', 'z', 'z', 'z', 0, 'a', 'a', 'a', 'a', 0});
  EXPECT_EQ(strings_text(data), "zzzz\naaaa\n");  // file order, not sorted
}

}  // namespace
}  // namespace fhc::elf
