// Differential fuzz target: the bitmask strings scan (elf::strings_text)
// against the retained byte-at-a-time loop
// (tests/support/reference_strings.hpp). The whole input is the image;
// the texts must be identical. Under ASan a read past the image's end
// (the zero-padded final block) shows here too.
#include <cstdint>
#include <cstdlib>
#include <span>

#include "elf/strings_extract.hpp"
#include "support/reference_strings.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  const std::span<const std::uint8_t> image(data, size);
  if (fhc::elf::strings_text(image) != fhc::testsupport::reference_strings_text(image)) {
    std::abort();
  }
  return 0;
}
