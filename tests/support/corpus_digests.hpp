// Shared digest corpus for the ssdeep tests: fuzzy hashes of random
// inputs across sizes, each with a locally mutated twin and a ~2x grown
// copy, so the set spans equal, adjacent and incompatible blocksize
// pairings and both outcomes of the 7-gram gate. Every part is a real
// fuzzy_hash output, unlike hand-built digest strings.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ssdeep/fuzzy_hash.hpp"
#include "util/rng.hpp"

namespace fhc::testsupport {

inline std::string random_text(util::Rng& rng, std::size_t n) {
  std::string out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back(static_cast<char>(rng.next_below(256)));
  }
  return out;
}

inline std::vector<ssdeep::FuzzyDigest> make_corpus_digests(std::uint64_t seed = 22) {
  util::Rng rng(seed);
  std::vector<ssdeep::FuzzyDigest> digests;
  for (const std::size_t size : {120u, 700u, 3000u, 12000u, 50000u}) {
    const std::string base = random_text(rng, size);
    digests.push_back(ssdeep::fuzzy_hash(base));

    std::string mutated = base;  // contiguous 10% block rewritten
    for (std::size_t i = size / 4; i < size / 4 + size / 10; ++i) {
      mutated[i] = static_cast<char>(rng.next_below(256));
    }
    digests.push_back(ssdeep::fuzzy_hash(mutated));

    // ~2x growth lands on the adjacent blocksize for most seeds.
    digests.push_back(ssdeep::fuzzy_hash(base + random_text(rng, size)));
  }
  return digests;
}

}  // namespace fhc::testsupport
