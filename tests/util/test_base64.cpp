// RFC 4648 vectors and roundtrip/error-handling tests for base64.
#include "util/base64.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <stdexcept>
#include <string>

namespace fhc::util {
namespace {

std::span<const std::uint8_t> as_bytes(const std::string& s) {
  return {reinterpret_cast<const std::uint8_t*>(s.data()), s.size()};
}

TEST(Base64Alphabet, HasSixtyFourUniqueCharacters) {
  ASSERT_EQ(kBase64Alphabet.size(), 64u);
  for (std::size_t i = 0; i < 64; ++i) {
    for (std::size_t j = i + 1; j < 64; ++j) {
      EXPECT_NE(kBase64Alphabet[i], kBase64Alphabet[j]);
    }
  }
}

TEST(Base64Char, MapsModulo64) {
  EXPECT_EQ(base64_char(0), 'A');
  EXPECT_EQ(base64_char(25), 'Z');
  EXPECT_EQ(base64_char(26), 'a');
  EXPECT_EQ(base64_char(63), '/');
  EXPECT_EQ(base64_char(64), 'A');   // wraps
  EXPECT_EQ(base64_char(129), 'B');  // 129 % 64 == 1
}

// RFC 4648 section 10 test vectors.
struct Rfc4648Case {
  const char* plain;
  const char* encoded;
};

// Without this, gtest prints the struct's raw bytes (two pointers), so the
// ctest names that gtest_discover_tests derives from the value change with
// every ASLR layout.
void PrintTo(const Rfc4648Case& c, std::ostream* os) {
  *os << '{' << '"' << c.plain << "\", \"" << c.encoded << "\"}";
}

class Base64Rfc : public ::testing::TestWithParam<Rfc4648Case> {};

TEST_P(Base64Rfc, EncodeMatchesRfc) {
  const auto [plain, encoded] = GetParam();
  EXPECT_EQ(base64_encode(as_bytes(plain)), encoded);
}

TEST_P(Base64Rfc, DecodeMatchesRfc) {
  const auto [plain, encoded] = GetParam();
  EXPECT_EQ(base64_decode(encoded), plain);
}

INSTANTIATE_TEST_SUITE_P(
    Vectors, Base64Rfc,
    ::testing::Values(Rfc4648Case{"", ""}, Rfc4648Case{"f", "Zg=="},
                      Rfc4648Case{"fo", "Zm8="}, Rfc4648Case{"foo", "Zm9v"},
                      Rfc4648Case{"foob", "Zm9vYg=="},
                      Rfc4648Case{"fooba", "Zm9vYmE="},
                      Rfc4648Case{"foobar", "Zm9vYmFy"}));

TEST(Base64, RoundTripsBinaryData) {
  std::string data;
  for (int i = 0; i < 256; ++i) data.push_back(static_cast<char>(i));
  EXPECT_EQ(base64_decode(base64_encode(as_bytes(data))), data);
}

TEST(Base64, DecodeRejectsBadLength) {
  EXPECT_THROW(base64_decode("abc"), std::invalid_argument);
  EXPECT_THROW(base64_decode("a"), std::invalid_argument);
}

TEST(Base64, DecodeRejectsBadCharacters) {
  EXPECT_THROW(base64_decode("ab!d"), std::invalid_argument);
  EXPECT_THROW(base64_decode("ab\nd"), std::invalid_argument);
}

TEST(Base64, DecodeRejectsBadPadding) {
  EXPECT_THROW(base64_decode("=abc"), std::invalid_argument);
  EXPECT_THROW(base64_decode("a==="), std::invalid_argument);
  EXPECT_THROW(base64_decode("Zg==Zg=="), std::invalid_argument);  // data after pad
}

}  // namespace
}  // namespace fhc::util
