// The non-rolling chunk hash used by CTPH.
//
// spamsum/ssdeep hash each chunk with a 32-bit FNV-style multiply-xor using
// a non-standard initial value (HASH_INIT = 0x28021967); the low 6 bits of
// the final state select one base64 character of the digest. We keep the
// historical constants for fidelity with the published algorithm.
//
// Because only those low 6 bits are ever read, FuzzyHasher keeps each
// chunk state in one byte and multiplies by kLanePrime = 19, which is
// congruent to kHashPrime (mod 64): `(h * 19) ^ c` and `(h * kHashPrime)
// ^ c` agree in the low 6 bits whenever the states do.
#pragma once

#include <cstdint>

namespace fhc::ssdeep {

inline constexpr std::uint32_t kHashPrime = 0x01000193u;  // FNV-1 32-bit prime
inline constexpr std::uint32_t kHashInit = 0x28021967u;   // spamsum's seed
inline constexpr std::uint8_t kLanePrime = 19;              // kHashPrime mod 64
static_assert(kHashPrime % 64 == kLanePrime);

/// One FNV step: absorbs byte `c` into state `h`.
constexpr std::uint32_t fnv_step(std::uint8_t c, std::uint32_t h) noexcept {
  return (h * kHashPrime) ^ c;
}

}  // namespace fhc::ssdeep
