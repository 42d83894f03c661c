// Shared synthetic FeatureHashes corpus for the service tests and the
// perf_service bench (kept in one place so the two cannot silently
// diverge from the pipeline mix they model).
//
// Per class, one random base buffer; training samples are xor-mutated
// variants of it and queries are distinct held-out variants — so
// same-class comparisons exercise the edit distance while cross-class
// pairs die at the 7-gram gate, the comparison mix fill_feature_row sees
// in the real pipeline, without the cost of synthesizing ELF images.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/features.hpp"
#include "ssdeep/fuzzy_hash.hpp"
#include "util/rng.hpp"

namespace fhc::testsupport {

inline std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
  util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xff);
  return out;
}

/// Three channels carved from one buffer (needs >= 40000 bytes).
inline core::FeatureHashes hashes_of(const std::vector<std::uint8_t>& file) {
  core::FeatureHashes hashes;
  hashes.file = ssdeep::fuzzy_hash(std::span<const std::uint8_t>(file));
  hashes.strings =
      ssdeep::fuzzy_hash(std::span<const std::uint8_t>(file).subspan(0, 20000));
  hashes.symbols =
      ssdeep::fuzzy_hash(std::span<const std::uint8_t>(file).subspan(20000, 20000));
  return hashes;
}

struct SyntheticHashesParams {
  int classes = 4;
  int per_class = 12;
  int queries = 16;               // distinct held-out variants, round-robin by class
  std::uint64_t base_seed = 300;  // class c's base buffer uses base_seed + c
  std::uint64_t mutation_seed = 7;
  std::size_t file_size = 60000;
};

struct SyntheticHashes {
  std::vector<core::FeatureHashes> train;
  std::vector<int> labels;  // parallel to train
  std::vector<core::FeatureHashes> queries;
};

inline SyntheticHashes make_synthetic_hashes(const SyntheticHashesParams& params) {
  SyntheticHashes out;
  util::Rng rng(params.mutation_seed);
  std::vector<std::vector<std::uint8_t>> bases;
  for (int c = 0; c < params.classes; ++c) {
    bases.push_back(
        random_bytes(params.base_seed + static_cast<std::uint64_t>(c), params.file_size));
  }
  for (int c = 0; c < params.classes; ++c) {
    for (int v = 0; v < params.per_class; ++v) {
      auto file = bases[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; i < 3000; ++i) {
        file[(static_cast<std::size_t>(v) * 877 + i * 17) % file.size()] ^=
            static_cast<std::uint8_t>(rng() & 0xff);
      }
      out.train.push_back(hashes_of(file));
      out.labels.push_back(c);
    }
  }
  for (int q = 0; q < params.queries; ++q) {
    auto file = bases[static_cast<std::size_t>(q % params.classes)];
    for (std::size_t i = 0; i < 5000; ++i) {
      file[(static_cast<std::size_t>(q) * 991 + i * 11) % file.size()] ^= 0x4d;
    }
    out.queries.push_back(hashes_of(file));
  }
  return out;
}

}  // namespace fhc::testsupport
