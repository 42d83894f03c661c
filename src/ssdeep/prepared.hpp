// PreparedDigest: the one-time-normalized form of a FuzzyDigest for
// repeated comparisons.
//
// compare_digests re-derives, for BOTH sides of EVERY call, the two
// run-normalized parts plus the sorted packed 7-gram arrays behind the
// common-substring gate. In the classifier that work is re-done millions
// of times per experiment: every (sample, train-digest) pair goes through
// the same normalization of train digests that never change. Preparing a
// digest once hoists all of it:
//
//   * part1/part2 after eliminate_long_runs,
//   * the sorted 42-bit-packed 7-gram array of each part (the gate then
//     degenerates to a merge scan of two presorted arrays).
//
// The raw digest text is deliberately NOT retained — comparison needs only
// the blocksize and the normalized parts, and indexes that must serialize
// (core::TrainIndex) keep their own raw view; serialization stays the
// "bs:p1:p2" text format and loaders prepare from it.
//
// compare_prepared is score-identical to compare_digests by construction:
// both run the same gate ordering and share score_strings_pregated
// (tests/ssdeep/test_prepared.cpp holds the property test). Its
// bit-parallel kernels build the first operand's match masks per call.
//
// The query side of a row fill is one digest compared against every
// candidate the GramIndex probe returned, and the probe has already
// decided every gate (gram_index.hpp). DigestMasks holds the query's
// match masks for both parts, built once (core::PreparedQuery keeps one
// per channel), and compare_prepared_pregated scores a candidate from
// the probe's hit bits: only the part pairs whose bit is set, with no
// gate and no mask build. It equals compare_prepared on every pair the
// probe returns (tests/core/test_feature_matrix.cpp). Pregated scoring
// reads no gram array, so it takes PreparedTextView, the normalized part
// text alone — which is all a model image stores of a training digest
// (core::TrainIndex::view_of). compare_prepared takes only a
// PreparedDigest, so a training digest without grams can never reach
// its gate.
//
// compare_prepared_pregated is the per-pair form. The row fill does not
// call it: it asks pregated_pairs, the one home of the part-pairing
// rules, for each candidate's part pairs, queues them in a four-slot
// ring and scores a full ring with the four-lane kernel
// (edit_distance.hpp), applying the scores in candidate order. The
// per-pair form stays as the fill's oracle in the tests.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "ssdeep/compare.hpp"
#include "ssdeep/digest.hpp"
#include "ssdeep/edit_distance.hpp"

namespace fhc::ssdeep {

/// One digest part after long-run elimination, with the sorted packed
/// 7-gram array for the common-substring gate precomputed.
struct PreparedPart {
  std::string text;
  std::vector<std::uint64_t> grams;
};

/// Non-owning view of a prepared digest's normalized part text, without
/// the gram arrays: what pregated scoring reads. Valid as long as the
/// backing storage (a PreparedDigest, or a mapped model's text pool)
/// lives.
struct PreparedTextView {
  std::uint32_t blocksize = kMinBlocksize;
  std::string_view part1;  // at blocksize
  std::string_view part2;  // at 2 * blocksize
};

class PreparedDigest {
 public:
  PreparedDigest() = default;
  explicit PreparedDigest(const FuzzyDigest& raw);

  std::uint32_t blocksize() const noexcept { return blocksize_; }
  const PreparedPart& part1() const noexcept { return part1_; }
  const PreparedPart& part2() const noexcept { return part2_; }

  PreparedTextView text_view() const noexcept {
    return {blocksize_, part1_.text, part2_.text};
  }

 private:
  std::uint32_t blocksize_ = kMinBlocksize;
  PreparedPart part1_;  // at blocksize
  PreparedPart part2_;  // at 2 * blocksize
};

/// Similarity in [0, 100]; bit-identical to compare_digests on the two
/// digests the operands were prepared from, but without re-normalizing
/// either side.
int compare_prepared(const PreparedDigest& a, const PreparedDigest& b,
                     EditMetric metric = EditMetric::kDamerauOsa);

/// Hit bits of one (query, candidate) pair, named by the query part whose
/// grams the probe used: bit 0 when the query's part1 shares a 7-gram
/// with the candidate part it pairs with at their blocksizes (part1 at
/// an equal blocksize, part2 when the query's blocksize is double the
/// candidate's), bit 1 the same for the query's part2 (part2 at an equal
/// blocksize, part1 when the query's blocksize is half).
inline constexpr std::uint32_t kHitPart1 = 1;
inline constexpr std::uint32_t kHitPart2 = 2;

/// Match masks of both parts of a query digest, built once for all of
/// its compares. A part longer than kBitParallelMaxPattern keeps zero
/// masks: it packs no grams, so no probe bit ever selects it.
struct DigestMasks {
  MatchMasks part1{};
  MatchMasks part2{};

  DigestMasks() = default;
  explicit DigestMasks(const PreparedTextView& digest);
};

/// One part pair a pregated candidate is scored on: the query part
/// `own` (with its prebuilt masks) against the candidate part `other`,
/// both produced at `blocksize`.
struct PartPair {
  const MatchMasks* own_masks = nullptr;
  std::string_view own;
  std::string_view other;
  std::uint32_t blocksize = 0;
};

/// What scoring one pregated (query, candidate) pair takes. Either the
/// identical-part1 fast path decides it (score 100, no kernel), or its
/// score is the max over `pairs[0, count)`, 0 when there are none.
struct PregatedPairs {
  bool identical = false;
  std::uint32_t count = 0;
  std::array<PartPair, 2> pairs{};
};

/// The part-pairing rules of pregated scoring, in one place: which query
/// part meets which candidate part at equal, double and half blocksize,
/// keeping only the pairs whose hit bit is set, plus the identical-part1
/// fast path at equal blocksizes. compare_prepared_pregated scores the
/// pairs one at a time; the row fill (core::fill_feature_row_slice)
/// queues them for the four-lane kernel.
PregatedPairs pregated_pairs(const PreparedTextView& own,
                             const DigestMasks& own_masks,
                             const PreparedTextView& other,
                             std::uint32_t hit_bits) noexcept;

/// compare_prepared(own, other, metric) for a pair the GramIndex probe
/// returned with `hit_bits`, where `own_masks` was built from `own`.
/// Keeps the identical-part1 == 100 fast path, then scores only the
/// part pairs whose bit is set (pregated_pairs). The bits stand in for
/// every gate score_parts would run: a set bit proves both parts hold
/// 7-64 chars and share a 7-gram, a clear bit that the pair scores 0.
/// The per-pair form: the row fill scores the same pairs four at a time,
/// and the tests hold it to this function as the oracle.
int compare_prepared_pregated(const PreparedTextView& own,
                              const DigestMasks& own_masks,
                              const PreparedTextView& other,
                              std::uint32_t hit_bits,
                              EditMetric metric = EditMetric::kDamerauOsa);

/// Construction-path test hook: process-wide count of digest
/// normalizations (PreparedDigest built from a FuzzyDigest). Lets tests
/// prove a code path — e.g. the v2 binary attach — prepared nothing.
std::uint64_t prepared_digest_count() noexcept;

}  // namespace fhc::ssdeep
