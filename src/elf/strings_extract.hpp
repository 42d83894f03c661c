// `strings`(1) equivalent: the paper's second feature channel is the
// SSDeep hash of "the continuous printable characters extracted using the
// strings command". Like GNU strings with `-a -n 4`, we scan the whole file
// for runs of >= 4 printable characters and print one run per line.
//
// One difference from GNU strings: GNU also counts '\t' as printable, so it
// reports "abcd\tefgh" as one string. Here printable means 0x20..0x7e only
// (util::is_printable_ascii), and the tab splits it into "abcd" and "efgh".
// That criterion is kept on purpose: changing it would change every
// strings digest and so the trained model.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

namespace fhc::elf {

/// Shortest printable run that is reported (GNU strings' default, -n 4).
inline constexpr std::size_t kMinStringLength = 4;

/// Every printable run of at least kMinStringLength bytes in `data`, in
/// file order, each followed by '\n': the exact text fed to the fuzzy
/// hasher.
std::string strings_text(std::span<const std::uint8_t> data);

}  // namespace fhc::elf
