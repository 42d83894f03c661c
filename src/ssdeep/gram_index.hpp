// GramIndex: an inverted index from packed 42-bit 7-grams to posting
// lists of digest ids — the lookup-structured formulation of the 7-gram
// gate.
//
// compare_prepared can only score > 0 when the two parts being scored
// share at least one 7-gram (score_parts runs sorted_grams_intersect
// before the edit distance and returns 0 when it fails; the
// identical-part1 == 100 fast path requires parts longer than the window
// and at most kSpamsumLength — exactly the lengths whose gram arrays are
// equal and non-empty). That makes the gate *invertible*: instead of
// merge-scanning a query's gram array against every training digest and
// rejecting almost all of them one by one, index the training side once —
// gram -> ids of the digests containing it — and probe it with the
// query's grams. The probe returns the exact candidate set; every digest
// it does not return is provably score 0 and is never touched. An
// all-pairs scan over N digests costs N merge scans per query; the probe
// costs one galloping merge of the query's <= 58 grams against the key
// array, independent of how many digests share no gram.
//
// The probe is also the gate for the candidates it returns. Each probe
// uses one query part's grams against one part of the indexed digests,
// and CandidateSet records per id which probes hit it (hit bits). A set
// bit is exactly sorted_grams_intersect on that part pair: both gram
// arrays are non-empty (so both parts hold 7-64 chars) and share a
// gram. A clear bit means the pair scores 0. So the row fill runs the
// edit distance on the hit part pairs only (pregated_pairs in
// prepared.hpp) and repeats none of those gates.
//
// The index is append-then-seal: add() every digest's presorted gram
// array (PreparedDigest already stores them), then finalize() to build
// the CSR layout (sorted unique keys, offsets, postings). Probing needs
// only those three arrays, so the probe side is split out as
// GramIndexView — three spans that can point at the builder's own
// vectors or at a memory-mapped model's CSR pools (the v2 binary format
// serializes the arrays verbatim and attaches views, skipping the
// build entirely). CandidateSet is the reusable probe accumulator: it
// dedups ids across multiple probes (a query probes up to four indexes
// per channel — part1/part2 across pairable blocksizes) with an
// epoch-stamped scratch array, so repeated probes allocate nothing in
// steady state.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace fhc::ssdeep {

/// Reusable deduplicating accumulator of candidate ids in [0, universe),
/// each with the OR of the hit bits (bits 0-1) it was inserted with
/// since the last reset. reset() is O(1) amortized (epoch stamps, not a
/// clear), insert() is O(1), and ids() returns the distinct ids inserted
/// since the last reset, in insertion order until sort() is called.
class CandidateSet {
 public:
  /// The bits of an insert() that are kept; higher ones are dropped.
  static constexpr std::uint32_t kHitBitsMask = 3;

  void reset(std::size_t universe);

  void insert(std::uint32_t id, std::uint32_t hit_bits) {
    std::uint32_t& stamp = stamp_[id];
    if ((stamp & ~kHitBitsMask) == epoch_) {
      stamp |= hit_bits & kHitBitsMask;
      return;
    }
    stamp = epoch_ | (hit_bits & kHitBitsMask);
    ids_.push_back(id);
  }

  /// Sorts the collected ids ascending (callers that assigned ids in a
  /// meaningful order — e.g. grouped by class — get grouped candidates).
  void sort();

  std::span<const std::uint32_t> ids() const noexcept { return ids_; }
  bool empty() const noexcept { return ids_.empty(); }

  /// The hit bits of `id`, which must be in ids().
  std::uint32_t hit_bits(std::uint32_t id) const noexcept {
    return stamp_[id] & kHitBitsMask;
  }

  /// Test hook: the next reset() takes the epoch-wrap branch, which
  /// clears every stamp, instead of after 2^30 resets.
  void wrap_epoch_on_next_reset() noexcept { epoch_ = ~kHitBitsMask; }

 private:
  // stamp_[id] = epoch | hit bits; the epoch part equals epoch_ <=> id
  // collected. epoch_ steps by 4, keeping bits 0-1 free.
  std::vector<std::uint32_t> stamp_;
  std::uint32_t epoch_ = 0;
  std::vector<std::uint32_t> ids_;
};

/// Non-owning probe view of a sealed CSR gram index: keys sorted unique,
/// postings of keys[i] at postings[offsets[i] .. offsets[i+1]). Backed by
/// either a GramIndex's own vectors or a mapped model's pools; the
/// backing storage validates shape (core::TrainIndex does so on attach)
/// and must outlive the view.
class GramIndexView {
 public:
  GramIndexView() = default;
  GramIndexView(std::span<const std::uint64_t> keys,
                std::span<const std::uint32_t> offsets,
                std::span<const std::uint32_t> postings) noexcept
      : keys_(keys), offsets_(offsets), postings_(postings) {}

  /// Probes with a presorted (possibly duplicated) query gram array and
  /// inserts the id of every indexed part sharing at least one gram into
  /// `out`, with `hit_bits`. Equivalent to running sorted_grams_intersect
  /// between the query array and every indexed array, without touching
  /// non-matches.
  void collect(std::span<const std::uint64_t> sorted_query_grams,
               CandidateSet& out, std::uint32_t hit_bits) const;

  std::size_t gram_count() const noexcept { return keys_.size(); }
  std::size_t posting_count() const noexcept { return postings_.size(); }

  std::span<const std::uint64_t> keys() const noexcept { return keys_; }
  std::span<const std::uint32_t> offsets() const noexcept { return offsets_; }
  std::span<const std::uint32_t> postings() const noexcept { return postings_; }

 private:
  std::span<const std::uint64_t> keys_;
  std::span<const std::uint32_t> offsets_;  // keys.size() + 1 entries
  std::span<const std::uint32_t> postings_;
};

class GramIndex {
 public:
  GramIndex() = default;

  /// Registers one digest part's presorted gram array under `id`.
  /// Duplicate grams within one array produce a single posting. Must not
  /// be called after finalize().
  void add(std::uint32_t id, std::span<const std::uint64_t> sorted_grams);

  /// Seals the index: builds the CSR (keys/offsets/postings) layout.
  /// Idempotent; collect() requires it.
  void finalize();

  /// Probes the sealed index (see GramIndexView::collect).
  void collect(std::span<const std::uint64_t> sorted_query_grams,
               CandidateSet& out, std::uint32_t hit_bits) const;

  /// Borrowing view of the sealed CSR — valid while this index lives and
  /// is not re-built. Requires finalize().
  GramIndexView view() const;

  bool finalized() const noexcept { return finalized_; }
  std::size_t gram_count() const noexcept { return keys_.size(); }
  std::size_t posting_count() const noexcept { return postings_.size(); }

 private:
  bool finalized_ = false;
  // Build-phase staging: (gram, id) pairs, consumed by finalize().
  std::vector<std::pair<std::uint64_t, std::uint32_t>> pending_;
  // Sealed CSR: keys_ sorted unique; postings of keys_[i] are
  // postings_[offsets_[i] .. offsets_[i+1]), each list sorted ascending.
  std::vector<std::uint64_t> keys_;
  std::vector<std::uint32_t> offsets_;
  std::vector<std::uint32_t> postings_;
};

/// Construction-path test hook: process-wide count of CSR builds
/// (GramIndex::finalize() calls that actually sealed an index). Lets
/// tests prove the v2 binary attach rebuilt no gram index.
std::uint64_t gram_index_build_count() noexcept;

}  // namespace fhc::ssdeep
