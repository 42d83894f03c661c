#include "ssdeep/gram_index.hpp"

#include <algorithm>
#include <atomic>
#include <stdexcept>

namespace fhc::ssdeep {

namespace {
std::atomic<std::uint64_t> g_build_count{0};
}  // namespace

std::uint64_t gram_index_build_count() noexcept {
  return g_build_count.load(std::memory_order_relaxed);
}

void CandidateSet::reset(std::size_t universe) {
  if (stamp_.size() < universe) stamp_.resize(universe, 0);
  epoch_ += kHitBitsMask + 1;
  if (epoch_ == 0) {
    // Epoch wrapped: every stale stamp could collide with the new epoch
    // and hand its old hit bits to the new one.
    std::fill(stamp_.begin(), stamp_.end(), 0);
    epoch_ = kHitBitsMask + 1;
  }
  ids_.clear();
}

void CandidateSet::sort() { std::sort(ids_.begin(), ids_.end()); }

void GramIndexView::collect(std::span<const std::uint64_t> sorted_query_grams,
                            CandidateSet& out, std::uint32_t hit_bits) const {
  // Galloping merge: both sides are sorted, so each lower_bound starts
  // where the previous match left off — total cost O(q log k) worst case,
  // better when the query's grams cluster.
  auto it = keys_.begin();
  std::uint64_t prev = 0;
  bool first = true;
  for (const std::uint64_t gram : sorted_query_grams) {
    if (!first && gram == prev) continue;
    prev = gram;
    first = false;
    it = std::lower_bound(it, keys_.end(), gram);
    if (it == keys_.end()) return;
    if (*it != gram) continue;
    const auto key = static_cast<std::size_t>(it - keys_.begin());
    for (std::uint32_t p = offsets_[key]; p < offsets_[key + 1]; ++p) {
      out.insert(postings_[p], hit_bits);
    }
  }
}

void GramIndex::add(std::uint32_t id, std::span<const std::uint64_t> sorted_grams) {
  if (finalized_) throw std::logic_error("GramIndex::add: already finalized");
  std::uint64_t prev = 0;
  bool first = true;
  for (const std::uint64_t gram : sorted_grams) {
    if (!first && gram == prev) continue;  // one posting per (gram, digest)
    pending_.emplace_back(gram, id);
    prev = gram;
    first = false;
  }
}

void GramIndex::finalize() {
  if (finalized_) return;
  finalized_ = true;
  g_build_count.fetch_add(1, std::memory_order_relaxed);
  // Sorting by (gram, id) groups each key's postings contiguously with the
  // ids already ascending. add() deduped within a digest, and distinct
  // digests have distinct ids, so no pair repeats.
  std::sort(pending_.begin(), pending_.end());
  keys_.reserve(pending_.size());
  offsets_.reserve(pending_.size() + 1);
  postings_.reserve(pending_.size());
  for (const auto& [gram, id] : pending_) {
    if (keys_.empty() || keys_.back() != gram) {
      keys_.push_back(gram);
      offsets_.push_back(static_cast<std::uint32_t>(postings_.size()));
    }
    postings_.push_back(id);
  }
  offsets_.push_back(static_cast<std::uint32_t>(postings_.size()));
  // keys_/offsets_ were reserved for the posting count but only hold one
  // entry per DISTINCT gram — return the slack, it lives as long as the
  // model does.
  keys_.shrink_to_fit();
  offsets_.shrink_to_fit();
  pending_.clear();
  pending_.shrink_to_fit();
}

GramIndexView GramIndex::view() const {
  if (!finalized_) throw std::logic_error("GramIndex::view: not finalized");
  return {keys_, offsets_, postings_};
}

void GramIndex::collect(std::span<const std::uint64_t> sorted_query_grams,
                        CandidateSet& out, std::uint32_t hit_bits) const {
  if (!finalized_) throw std::logic_error("GramIndex::collect: not finalized");
  view().collect(sorted_query_grams, out, hit_bits);
}

}  // namespace fhc::ssdeep
