// Differential fuzz target: the gram-indexed feature-row fill against
// the all-pairs oracle, on fuzzer-shaped digest sets.
//
// The input is split on newlines; every line that parses as a fuzzy
// digest becomes one single-channel training sample (labels round-robin
// over up to 4 classes). For a handful of the samples we then assert
//
//   fill_feature_row(...) == fill_feature_row_all_pairs(...)
//
// bit-for-bit, for both edit metrics and with/without leave-self-out.
// The gram index is a *pruning* structure: any divergence from the
// exhaustive scan means the index dropped (or invented) a candidate —
// silently wrong similarity features, the worst failure mode a
// classifier can have. unit tests cover curated digests; this target
// lets the fuzzer search for pathological blocksize/length combinations
// the curated set misses.
//
// Each candidate the probe returns is also scored both ways: the
// pregated compare from its hit bits, the query's prebuilt masks and the
// index's stored part text must equal compare_prepared on the candidate
// prepared afresh from its raw digest, for both metrics. A hit bit on
// the wrong part, a missing one, or a stale one from an earlier probe
// fails here on the pair itself, before a row max could hide it.
//
// The same digests also check the scoring kernels: for every checked
// sample and every sample it is paired with, each pair of normalized
// parts of <= 64 chars must give the bit-parallel distance equal to the
// DP oracle's, for both metrics. A row fill only reaches the kernels
// behind the 7-gram gate; this reaches them on every pair. The same
// pairs then go four at a time, in order, through the four-lane cores
// (the row fill's kernel), which must return the same distances lane
// by lane, whatever the mix of pattern and text lengths in one call.
#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/feature_matrix.hpp"
#include "core/features.hpp"
#include "ssdeep/compare.hpp"
#include "ssdeep/digest.hpp"
#include "ssdeep/edit_distance.hpp"
#include "ssdeep/prepared.hpp"

namespace {

constexpr std::size_t kMaxSamples = 64;  // keep one input cheap
constexpr std::size_t kMaxChecked = 8;   // rows asserted per input

void check_rows_equal(std::span<const float> indexed,
                      std::span<const float> oracle) {
  if (indexed.size() != oracle.size()) std::abort();
  for (std::size_t i = 0; i < indexed.size(); ++i) {
    // Bit-identity, including signed zero; both paths compute the same
    // max over the same candidate scores or the column stays 0.
    if (std::memcmp(&indexed[i], &oracle[i], sizeof(float)) != 0) std::abort();
  }
}

/// One part pair whose kernels agreed with the DP: `masks` indexes the
/// prebuilt masks of `a`.
struct KernelPair {
  std::size_t masks = 0;
  std::string_view a;
  std::string_view b;
  std::size_t osa = 0;
  std::size_t weighted = 0;
};

void check_kernels(std::size_t masks, std::string_view a, std::string_view b,
                   std::vector<KernelPair>& checked) {
  if (a.size() > fhc::ssdeep::kBitParallelMaxPattern ||
      b.size() > fhc::ssdeep::kBitParallelMaxPattern) {
    return;
  }
  const std::size_t osa = fhc::ssdeep::damerau_levenshtein_osa_bitparallel(a, b);
  const std::size_t weighted = fhc::ssdeep::weighted_levenshtein_bitparallel(a, b);
  if (osa != fhc::ssdeep::damerau_levenshtein_osa(a, b)) std::abort();
  if (weighted != fhc::ssdeep::weighted_levenshtein(a, b)) std::abort();
  checked.push_back({masks, a, b, osa, weighted});
}

/// The checked pairs four at a time through the four-lane cores; a
/// short last group repeats its first pair in the empty lanes.
void check_four_lanes(const std::vector<fhc::ssdeep::MatchMasks>& masks,
                      const std::vector<KernelPair>& pairs) {
  for (std::size_t first = 0; first < pairs.size(); first += 4) {
    std::array<const KernelPair*, 4> group{};
    fhc::ssdeep::FourLanes lanes;
    for (std::size_t l = 0; l < 4; ++l) {
      group[l] = &pairs[first + l < pairs.size() ? first + l : first];
      lanes[l] = {&masks[group[l]->masks], group[l]->a.size(), group[l]->b};
    }
    const std::array<std::size_t, 4> osa =
        fhc::ssdeep::damerau_levenshtein_osa_bitparallel(lanes);
    const std::array<std::size_t, 4> weighted =
        fhc::ssdeep::weighted_levenshtein_bitparallel(lanes);
    for (std::size_t l = 0; l < 4; ++l) {
      if (osa[l] != group[l]->osa || weighted[l] != group[l]->weighted) std::abort();
    }
  }
}

void check_pregated(const fhc::core::TrainIndex& index,
                    const std::vector<fhc::core::FeatureHashes>& samples,
                    const fhc::core::FeatureHashes& sample) {
  const fhc::core::PreparedQuery query(sample);
  const fhc::core::QueryCandidates candidates(index, query);
  for (std::size_t f = 0; f < index.n_channels(); ++f) {
    const fhc::ssdeep::PreparedDigest& own = query.channel(f);
    const auto& grams = index.gram_index(f);
    for (const fhc::core::QueryCandidates::Candidate& hit : candidates.of(f)) {
      const auto& entry = grams.entries[hit.id];
      const auto& bucket =
          index.prepared(f, entry.cls)[static_cast<std::size_t>(entry.bucket)];
      const auto pos = static_cast<std::size_t>(entry.pos);
      const fhc::ssdeep::PreparedDigest other(
          samples[static_cast<std::size_t>(bucket.ids[pos])].channel(f));
      for (const fhc::ssdeep::EditMetric metric :
           {fhc::ssdeep::EditMetric::kDamerauOsa,
            fhc::ssdeep::EditMetric::kWeightedLevenshtein}) {
        if (fhc::ssdeep::compare_prepared_pregated(
                own.text_view(), query.masks(f), index.view_of(bucket, pos),
                hit.hit_bits, metric) !=
            fhc::ssdeep::compare_prepared(own, other, metric)) {
          std::abort();
        }
      }
    }
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const std::uint8_t* data,
                                      std::size_t size) {
  const std::string_view text(reinterpret_cast<const char*>(data), size);

  std::vector<fhc::core::FeatureHashes> samples;
  std::size_t pos = 0;
  while (pos <= text.size() && samples.size() < kMaxSamples) {
    const std::size_t nl = text.find('\n', pos);
    const std::string_view line =
        text.substr(pos, nl == std::string_view::npos ? nl : nl - pos);
    if (const auto digest = fhc::ssdeep::parse_digest(line)) {
      fhc::core::FeatureHashes sample;
      sample.file = *digest;  // single populated channel is enough to probe
      samples.push_back(std::move(sample));
    }
    if (nl == std::string_view::npos) break;
    pos = nl + 1;
  }
  if (samples.size() < 2) return 0;  // need at least two classes

  const std::size_t n_classes = std::min<std::size_t>(samples.size(), 4);
  std::vector<int> labels(samples.size());
  std::vector<std::string> names;
  for (std::size_t c = 0; c < n_classes; ++c) {
    names.push_back("class" + std::to_string(c));
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    labels[i] = static_cast<int>(i % n_classes);
  }

  const fhc::core::TrainIndex index(samples, labels, names);
  const std::size_t row_width = index.n_channels() * n_classes;
  std::vector<float> indexed(row_width);
  std::vector<float> oracle(row_width);

  const fhc::ssdeep::EditMetric metrics[] = {
      fhc::ssdeep::EditMetric::kDamerauOsa,
      fhc::ssdeep::EditMetric::kWeightedLevenshtein};
  const std::size_t checked = std::min(samples.size(), kMaxChecked);
  std::vector<std::string> parts;  // normalized part1, part2 per sample
  for (const fhc::core::FeatureHashes& sample : samples) {
    parts.push_back(fhc::ssdeep::eliminate_long_runs(sample.file.part1));
    parts.push_back(fhc::ssdeep::eliminate_long_runs(sample.file.part2));
  }
  std::vector<fhc::ssdeep::MatchMasks> masks(2 * checked);
  std::vector<KernelPair> kernel_pairs;
  for (std::size_t i = 0; i < 2 * checked; ++i) {
    if (parts[i].size() <= fhc::ssdeep::kBitParallelMaxPattern) {
      fhc::ssdeep::build_match_masks(parts[i], masks[i]);
    }
    for (const std::string& other : parts) check_kernels(i, parts[i], other, kernel_pairs);
  }
  check_four_lanes(masks, kernel_pairs);
  for (std::size_t i = 0; i < checked; ++i) {
    check_pregated(index, samples, samples[i]);
    for (const fhc::ssdeep::EditMetric metric : metrics) {
      for (const int exclude : {-1, static_cast<int>(i)}) {
        std::fill(indexed.begin(), indexed.end(), -1.0f);
        std::fill(oracle.begin(), oracle.end(), -2.0f);
        fhc::core::fill_feature_row(index, samples[i], metric, exclude,
                                    indexed);
        fhc::core::fill_feature_row_all_pairs(index, samples[i], metric,
                                              exclude, oracle);
        check_rows_equal(indexed, oracle);
      }
    }
  }
  return 0;
}
