// Reference strings scan: the byte-at-a-time loop that
// `elf::strings_text`'s 64-byte bitmask scan replaced, kept as the oracle
// the engine is checked against (tests/elf/test_strings_reference.cpp,
// tests/fuzz/fuzz_strings.cpp) and as the baseline of the
// BM_StringsTextReference micro-bench.
//
// Do not optimize or otherwise edit this file together with
// src/elf/strings_extract.cpp: the differential test is only as good as
// this code is unchanged.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "util/string_util.hpp"

namespace fhc::testsupport {

/// GNU strings' default minimum run length (-n 4).
inline constexpr std::size_t kReferenceMinStringLength = 4;

/// All printable runs in `data`, in file order.
inline std::vector<std::string> reference_extract_strings(std::span<const std::uint8_t> data) {
  std::vector<std::string> out;
  std::size_t run_start = 0;
  std::size_t run_length = 0;
  for (std::size_t i = 0; i <= data.size(); ++i) {
    const bool printable = i < data.size() && fhc::util::is_printable_ascii(data[i]);
    if (printable) {
      if (run_length == 0) run_start = i;
      ++run_length;
    } else {
      if (run_length >= kReferenceMinStringLength) {
        out.emplace_back(reinterpret_cast<const char*>(data.data() + run_start),
                         run_length);
      }
      run_length = 0;
    }
  }
  return out;
}

/// The runs, each followed by '\n'.
inline std::string reference_strings_text(std::span<const std::uint8_t> data) {
  const std::vector<std::string> runs = reference_extract_strings(data);
  std::string text;
  std::size_t total = 0;
  for (const std::string& run : runs) total += run.size() + 1;
  text.reserve(total);
  for (const std::string& run : runs) {
    text += run;
    text.push_back('\n');
  }
  return text;
}

}  // namespace fhc::testsupport
