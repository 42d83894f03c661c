// Differential fuzz target: the byte-lane ssdeep::FuzzyHasher against the
// retained reference engine (tests/support/reference_fuzzy_hash.hpp).
//
// Input layout:
//
//   byte 0        flags: bits 0-2 = number of split points k (0..7),
//                 bit 3 = after the first piece, continue on a copy of
//                 the engine and reset the original (the copy must not
//                 share state with it)
//   bytes 1..2k   k split points, u16 little-endian, each taken modulo
//                 (payload size + 1) and sorted
//   the rest      the payload
//
// Both engines absorb the payload in the same pieces; after every piece
// their digests and sizes must be identical (a mid-stream digest() each
// time), and so must the one-shot digests of the whole payload. The
// engine keeps its lanes and rolling hash in locals inside absorb(), so
// piece boundaries are where a lost or stale spill would show; the
// one-shot digest skips the levels above its size's cap, which the
// streamed pieces cannot.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <span>
#include <vector>

#include "ssdeep/fuzzy_hash.hpp"
#include "support/reference_fuzzy_hash.hpp"

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size) {
  if (size == 0) return 0;
  const std::size_t splits = data[0] & 7u;
  const bool continue_on_copy = (data[0] & 8u) != 0;
  const std::size_t header = 1 + 2 * splits;
  if (size < header) return 0;
  const std::span<const std::uint8_t> payload(data + header, size - header);

  std::vector<std::size_t> cuts;
  for (std::size_t i = 0; i < splits; ++i) {
    const std::size_t raw = data[1 + 2 * i] | (std::size_t{data[2 + 2 * i]} << 8);
    cuts.push_back(raw % (payload.size() + 1));
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.push_back(payload.size());

  fhc::ssdeep::FuzzyHasher original;
  fhc::ssdeep::FuzzyHasher copy;
  fhc::ssdeep::FuzzyHasher* engine = &original;
  fhc::testsupport::ReferenceFuzzyHasher reference;
  std::size_t fed = 0;
  for (const std::size_t cut : cuts) {
    const auto piece = payload.subspan(fed, cut - fed);
    engine->update(piece);
    reference.update(piece);
    if (engine->digest() != reference.digest()) std::abort();
    if (engine->total_size() != reference.total_size()) std::abort();
    if (continue_on_copy && engine == &original) {
      copy = original;
      original.reset();
      engine = &copy;
    }
    fed = cut;
  }

  if (fhc::ssdeep::fuzzy_hash(payload) != fhc::testsupport::reference_fuzzy_hash(payload)) {
    std::abort();
  }
  return 0;
}
