// google-benchmark microbenchmarks for the SSDeep substrate: hashing
// throughput, digest comparison cost (gated vs scored path, raw vs
// prepared), edit distances (DP oracles vs the bit-parallel scoring
// kernels), the strings channel's scan (bitmask engine vs the
// byte-at-a-time reference) and the classifier's feature-row extraction. The
// prepared-vs-raw pairs quantify what PreparedDigest saves by normalizing
// each side once instead of on every comparison.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/feature_matrix.hpp"
#include "core/features.hpp"
#include "corpus/app_spec.hpp"
#include "corpus/corpus.hpp"
#include "elf/strings_extract.hpp"
#include "elf/symbols_extract.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/synthetic.hpp"
#include "ssdeep/compare.hpp"
#include "ssdeep/edit_distance.hpp"
#include "ssdeep/fuzzy_hash.hpp"
#include "ssdeep/prepared.hpp"
#include "ssdeep/rolling_hash.hpp"
#include "support/reference_fuzzy_hash.hpp"
#include "support/reference_strings.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fhc;

std::vector<std::uint8_t> random_bytes(std::uint64_t seed, std::size_t n) {
  fhc::util::Rng rng(seed);
  std::vector<std::uint8_t> out(n);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng() & 0xff);
  return out;
}

void BM_FuzzyHash(benchmark::State& state) {
  const auto data = random_bytes(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::fuzzy_hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FuzzyHash)->Range(1 << 10, 1 << 22);

void BM_FuzzyHashReference(benchmark::State& state) {
  // The per-level engine the byte-lane hasher replaced (the differential
  // tests' oracle): BM_FuzzyHash / BM_FuzzyHashReference at one size is
  // the rewrite's speedup, measured in the same binary run.
  const auto data = random_bytes(1, static_cast<std::size_t>(state.range(0)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        testsupport::reference_fuzzy_hash(std::span<const std::uint8_t>(data)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_FuzzyHashReference)->Range(1 << 10, 1 << 22);

/// The three inputs a CLASSIFY_PATH request hashes: a corpus ELF image
/// of perfbench's query corpus (scaled_app_classes(0.75)), its strings
/// text and its symbols text.
struct RequestInputs {
  std::vector<std::uint8_t> image;
  std::string strings;
  std::string symbols;
};

const std::vector<RequestInputs>& request_bench_inputs() {
  static const std::vector<RequestInputs> inputs = [] {
    corpus::Corpus corpus(corpus::scaled_app_classes(0.75), 42);
    std::vector<RequestInputs> out;
    const auto& samples = corpus.samples();
    const std::size_t stride = std::max<std::size_t>(1, samples.size() / 32);
    for (std::size_t s = 0; s < samples.size(); s += stride) {
      RequestInputs request{corpus.sample_bytes(samples[s], s % 2 == 1), {}, {}};
      request.strings = elf::strings_text(request.image);
      request.symbols = elf::global_text_symbols_text(request.image);
      out.push_back(std::move(request));
    }
    return out;
  }();
  return inputs;
}

template <typename Hash>
void run_request_bench(benchmark::State& state, Hash hash) {
  const auto& inputs = request_bench_inputs();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    for (const RequestInputs& request : inputs) {
      benchmark::DoNotOptimize(hash(std::span<const std::uint8_t>(request.image)));
      benchmark::DoNotOptimize(hash(std::string_view(request.strings)));
      benchmark::DoNotOptimize(hash(std::string_view(request.symbols)));
      bytes += static_cast<std::int64_t>(request.image.size() + request.strings.size() +
                                         request.symbols.size());
    }
  }
  state.SetBytesProcessed(bytes);
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(inputs.size()));
}

void BM_FuzzyHashRequest(benchmark::State& state) {
  // A prolog request's hashing: file, strings and symbols digests of each
  // image (items_per_second is requests per second).
  run_request_bench(state, [](auto input) { return ssdeep::fuzzy_hash(input); });
}
BENCHMARK(BM_FuzzyHashRequest);

void BM_FuzzyHashRequestReference(benchmark::State& state) {
  // The same three hashes through the per-level reference engine.
  run_request_bench(state,
                    [](auto input) { return testsupport::reference_fuzzy_hash(input); });
}
BENCHMARK(BM_FuzzyHashRequestReference);

void BM_RollingHash(benchmark::State& state) {
  // The context trigger alone over 1 MiB: every byte must pass through it,
  // so this is the ceiling on BM_FuzzyHash's throughput.
  const auto data = random_bytes(1, 1 << 20);
  for (auto _ : state) {
    ssdeep::RollingHash roll;
    std::uint32_t acc = 0;
    for (const std::uint8_t c : data) acc ^= roll.update(c);
    benchmark::DoNotOptimize(acc);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_RollingHash);

/// Corpus ELF images, stripped and unstripped: the mix of code, data and
/// string tables the strings scan sees on a prolog request.
const std::vector<std::vector<std::uint8_t>>& strings_bench_images() {
  static const std::vector<std::vector<std::uint8_t>> images = [] {
    corpus::Corpus corpus(corpus::scaled_app_classes(0.02), 42);
    std::vector<std::vector<std::uint8_t>> out;
    const auto& samples = corpus.samples();
    const std::size_t stride = std::max<std::size_t>(1, samples.size() / 32);
    for (std::size_t s = 0; s < samples.size(); s += stride) {
      out.push_back(corpus.sample_bytes(samples[s], s % 2 == 1));
    }
    return out;
  }();
  return images;
}

template <typename Scan>
void run_strings_bench(benchmark::State& state, Scan scan) {
  const auto& images = strings_bench_images();
  std::int64_t bytes = 0;
  for (auto _ : state) {
    for (const auto& image : images) {
      benchmark::DoNotOptimize(scan(std::span<const std::uint8_t>(image)));
      bytes += static_cast<std::int64_t>(image.size());
    }
  }
  state.SetBytesProcessed(bytes);
}

void BM_StringsText(benchmark::State& state) {
  run_strings_bench(state, [](std::span<const std::uint8_t> image) {
    return elf::strings_text(image);
  });
}
BENCHMARK(BM_StringsText);

void BM_StringsTextReference(benchmark::State& state) {
  // The byte-at-a-time loop the bitmask scan replaced (the differential
  // tests' oracle): BM_StringsText / BM_StringsTextReference is the
  // rewrite's speedup on the same images.
  run_strings_bench(state, [](std::span<const std::uint8_t> image) {
    return testsupport::reference_strings_text(image);
  });
}
BENCHMARK(BM_StringsTextReference);

void BM_CompareRelatedDigests(benchmark::State& state) {
  // Related inputs: the edit distance actually runs.
  auto a = random_bytes(2, 100000);
  auto b = a;
  for (std::size_t i = 30000; i < 40000; ++i) b[i] ^= 0x5a;
  const auto da = ssdeep::fuzzy_hash(std::span<const std::uint8_t>(a));
  const auto db = ssdeep::fuzzy_hash(std::span<const std::uint8_t>(b));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::compare_digests(da, db));
  }
}
BENCHMARK(BM_CompareRelatedDigests);

void BM_CompareUnrelatedDigests(benchmark::State& state) {
  // Unrelated inputs: the common-7-gram gate rejects before the edit distance — the
  // fast path that dominates cross-class comparisons in the pipeline.
  const auto da = ssdeep::fuzzy_hash(std::span<const std::uint8_t>(random_bytes(3, 100000)));
  const auto db = ssdeep::fuzzy_hash(std::span<const std::uint8_t>(random_bytes(4, 100000)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::compare_digests(da, db));
  }
}
BENCHMARK(BM_CompareUnrelatedDigests);

void BM_ComparePreparedRelatedDigests(benchmark::State& state) {
  // Same digest pair as BM_CompareRelatedDigests, but both sides prepared
  // once up front — the edit distance still runs, only the per-call normalization and
  // gram packing disappear.
  auto a = random_bytes(2, 100000);
  auto b = a;
  for (std::size_t i = 30000; i < 40000; ++i) b[i] ^= 0x5a;
  const ssdeep::PreparedDigest da(ssdeep::fuzzy_hash(std::span<const std::uint8_t>(a)));
  const ssdeep::PreparedDigest db(ssdeep::fuzzy_hash(std::span<const std::uint8_t>(b)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::compare_prepared(da, db));
  }
}
BENCHMARK(BM_ComparePreparedRelatedDigests);

void BM_ComparePregatedRelatedDigests(benchmark::State& state) {
  // The same prepared pair scored the way the row fill scores a probe
  // candidate: from the probe's hit bits (here the part pairs that share
  // a 7-gram, which is what the probe reports) with the query's match
  // masks built once. No gram gate and no per-call mask build; against
  // BM_ComparePreparedRelatedDigests this is what each candidate saves.
  auto a = random_bytes(2, 100000);
  auto b = a;
  for (std::size_t i = 30000; i < 40000; ++i) b[i] ^= 0x5a;
  const ssdeep::PreparedDigest da(ssdeep::fuzzy_hash(std::span<const std::uint8_t>(a)));
  const ssdeep::PreparedDigest db(ssdeep::fuzzy_hash(std::span<const std::uint8_t>(b)));
  const ssdeep::DigestMasks masks(da.text_view());
  std::uint32_t hit_bits = 0;
  if (ssdeep::sorted_grams_intersect(da.part1().grams, db.part1().grams)) {
    hit_bits |= ssdeep::kHitPart1;
  }
  if (ssdeep::sorted_grams_intersect(da.part2().grams, db.part2().grams)) {
    hit_bits |= ssdeep::kHitPart2;
  }
  if (da.blocksize() != db.blocksize() || hit_bits == 0) {
    state.SkipWithError("related digests lost their shared grams");
    return;
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ssdeep::compare_prepared_pregated(da.text_view(), masks, db.text_view(),
                                          hit_bits));
  }
}
BENCHMARK(BM_ComparePregatedRelatedDigests);

void BM_ComparePreparedUnrelatedDigests(benchmark::State& state) {
  // The classifier's dominant case (cross-class pair, 7-gram gate
  // rejects): raw comparison re-runs eliminate_long_runs and re-packs and
  // re-sorts both gram arrays per call; prepared is a pure merge scan.
  const ssdeep::PreparedDigest da(
      ssdeep::fuzzy_hash(std::span<const std::uint8_t>(random_bytes(3, 100000))));
  const ssdeep::PreparedDigest db(
      ssdeep::fuzzy_hash(std::span<const std::uint8_t>(random_bytes(4, 100000))));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::compare_prepared(da, db));
  }
}
BENCHMARK(BM_ComparePreparedUnrelatedDigests);

void BM_PrepareDigest(benchmark::State& state) {
  // One-time preparation cost — paid once per train digest per index
  // build, amortized over every comparison against it.
  const auto digest = ssdeep::fuzzy_hash(std::span<const std::uint8_t>(random_bytes(12, 100000)));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::PreparedDigest(digest));
  }
}
BENCHMARK(BM_PrepareDigest);

std::string random_digest_chars(std::uint64_t seed, std::size_t n) {
  static constexpr char kAlpha[] =
      "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";
  fhc::util::Rng rng(seed);
  std::string out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(kAlpha[rng.next_below(64)]);
  return out;
}

void BM_DamerauOsa64(benchmark::State& state) {
  const std::string a = random_digest_chars(5, 64);
  const std::string b = random_digest_chars(6, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::damerau_levenshtein_osa(a, b));
  }
}
BENCHMARK(BM_DamerauOsa64);

void BM_WeightedLevenshtein64(benchmark::State& state) {
  const std::string a = random_digest_chars(7, 64);
  const std::string b = random_digest_chars(8, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::weighted_levenshtein(a, b));
  }
}
BENCHMARK(BM_WeightedLevenshtein64);

// The bit-parallel twins of the two DP benches above, on the same inputs:
// the kernels score_strings_pregated runs. One item is one scored pair.
void BM_DamerauOsa64BitParallel(benchmark::State& state) {
  const std::string a = random_digest_chars(5, 64);
  const std::string b = random_digest_chars(6, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::damerau_levenshtein_osa_bitparallel(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_DamerauOsa64BitParallel);

void BM_WeightedLevenshtein64BitParallel(benchmark::State& state) {
  const std::string a = random_digest_chars(7, 64);
  const std::string b = random_digest_chars(8, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::weighted_levenshtein_bitparallel(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_WeightedLevenshtein64BitParallel);

// The four-lane cores on the same pairs, four copies per call: the
// row fill's shape, where four independent chains overlap their
// latency. Compare items_per_second with the one-lane benches above.
template <typename Kernel>
void run_four_lanes(benchmark::State& state, std::uint64_t seed_a, std::uint64_t seed_b,
                    Kernel kernel) {
  const std::string a = random_digest_chars(seed_a, 64);
  const std::string b = random_digest_chars(seed_b, 64);
  ssdeep::MatchMasks masks{};
  ssdeep::build_match_masks(a, masks);
  const ssdeep::BitParallelLane lane{&masks, a.size(), b};
  const ssdeep::FourLanes lanes{lane, lane, lane, lane};
  for (auto _ : state) {
    benchmark::DoNotOptimize(kernel(lanes));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 4);
}

void BM_DamerauOsa64BitParallelFourLanes(benchmark::State& state) {
  run_four_lanes(state, 5, 6, [](const ssdeep::FourLanes& lanes) {
    return ssdeep::damerau_levenshtein_osa_bitparallel(lanes);
  });
}
BENCHMARK(BM_DamerauOsa64BitParallelFourLanes);

void BM_WeightedLevenshtein64BitParallelFourLanes(benchmark::State& state) {
  run_four_lanes(state, 7, 8, [](const ssdeep::FourLanes& lanes) {
    return ssdeep::weighted_levenshtein_bitparallel(lanes);
  });
}
BENCHMARK(BM_WeightedLevenshtein64BitParallelFourLanes);

void BM_HasCommonSubstring(benchmark::State& state) {
  const std::string a = random_digest_chars(9, 64);
  const std::string b = random_digest_chars(10, 64);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ssdeep::has_common_substring(a, b));
  }
}
BENCHMARK(BM_HasCommonSubstring);

// --- feature-row extraction: the classifier's hot loop -----------------

struct FeatureBenchData {
  std::vector<core::FeatureHashes> train;
  std::vector<int> labels;
  std::unique_ptr<core::TrainIndex> owned_index;  // TrainIndex is immovable
  core::FeatureHashes query;
  const core::TrainIndex& index() const { return *owned_index; }
};

// The paper's realistic shape: 73 classes x 12 training samples; per
// class, variants of a shared base buffer that differ in one contiguous
// mutated window (the recompiled-binary pattern), so same-class pairs
// share 7-grams and genuinely run the edit distance, while
// cross-class pairs share nothing — the mix fill_feature_row sees in
// the real pipeline. At this width the all-pairs scan spends almost all
// its time normalizing and gating cross-class digests that provably
// score 0;
// the GramIndex probe never visits them, so the indexed fill's cost is
// the probe plus the same-class edit distances both paths must pay.
const FeatureBenchData& feature_bench_data() {
  static const FeatureBenchData data = [] {
    constexpr int kClasses = 73;
    constexpr int kPerClass = 12;
    constexpr std::size_t kFileSize = 60000;
    constexpr std::size_t kWindow = 6000;
    fhc::util::Rng rng(13);
    std::vector<core::FeatureHashes> train;
    std::vector<int> labels;
    std::vector<std::vector<std::uint8_t>> bases;
    for (int c = 0; c < kClasses; ++c) {
      bases.push_back(random_bytes(100 + static_cast<std::uint64_t>(c), kFileSize));
    }
    const auto variant = [&](int c, std::size_t start) {
      auto file = bases[static_cast<std::size_t>(c)];
      for (std::size_t i = 0; i < kWindow; ++i) {
        file[(start + i) % file.size()] ^= static_cast<std::uint8_t>(rng() & 0xff);
      }
      core::FeatureHashes hashes;
      hashes.file = ssdeep::fuzzy_hash(std::span<const std::uint8_t>(file));
      hashes.strings = ssdeep::fuzzy_hash(
          std::span<const std::uint8_t>(file).subspan(0, 20000));
      hashes.symbols = ssdeep::fuzzy_hash(
          std::span<const std::uint8_t>(file).subspan(20000, 20000));
      return hashes;
    };
    for (int c = 0; c < kClasses; ++c) {
      for (int v = 0; v < kPerClass; ++v) {
        train.push_back(variant(c, static_cast<std::size_t>(v) * 4391));
        labels.push_back(c);
      }
    }
    std::vector<std::string> names;
    for (int c = 0; c < kClasses; ++c) names.push_back("class" + std::to_string(c));
    auto index = std::make_unique<core::TrainIndex>(train, labels, std::move(names));
    // Held-out same-class query: a class-0 variant whose mutation window
    // none of the training variants used.
    core::FeatureHashes query = variant(0, 53123);
    return FeatureBenchData{std::move(train), std::move(labels), std::move(index),
                            std::move(query)};
  }();
  return data;
}

void BM_FeatureRowAllPairs(benchmark::State& state) {
  // One feature row via the library's all-pairs oracle: compare_digests
  // against every raw train digest, re-normalizing both sides per pair —
  // the pre-PreparedDigest behaviour every later fill is measured against.
  const FeatureBenchData& data = feature_bench_data();
  std::vector<float> row(static_cast<std::size_t>(3 * data.index().n_classes()));
  for (auto _ : state) {
    core::fill_feature_row_all_pairs(data.index(), data.query,
                                     ssdeep::EditMetric::kDamerauOsa, -1, row);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.train.size()) * 3);
}
BENCHMARK(BM_FeatureRowAllPairs);

void BM_FeatureRowIndexed(benchmark::State& state) {
  // The same row via the GramIndex candidate probe: cross-class digests
  // that share no 7-gram with the query are never touched, so the row
  // cost collapses to the probe plus the few genuine candidates' edit distances.
  const FeatureBenchData& data = feature_bench_data();
  std::vector<float> row(static_cast<std::size_t>(3 * data.index().n_classes()));
  core::RowFillStats stats;
  for (auto _ : state) {
    core::fill_feature_row(data.index(), data.query,
                           ssdeep::EditMetric::kDamerauOsa, -1, row,
                           core::kAllChannels, &stats);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.train.size()) * 3);
  const auto iters = std::max<std::int64_t>(state.iterations(), 1);
  const auto visited = static_cast<double>(stats.candidates_scored + stats.index_skipped);
  state.counters["scored_per_row"] =
      static_cast<double>(stats.candidates_scored) / static_cast<double>(iters);
  state.counters["skip_rate"] =
      visited > 0.0 ? static_cast<double>(stats.index_skipped) / visited : 0.0;
}
BENCHMARK(BM_FeatureRowIndexed);

/// A row fill at prolog shape: perfbench's fixture corpus
/// (scaled_app_classes(0.75), seed 42), indexed the way its model is
/// trained — the known classes, each class's newest version held out
/// when it has more than one — and one query per known class, the
/// newest version in an executable slot the corpus never enumerates.
/// A row there meets hundreds of candidates, nearly all on the strings
/// channel, where BM_FeatureRowIndexed meets about 19.
struct ManyCandidateData {
  std::unique_ptr<core::TrainIndex> index;  // TrainIndex is immovable
  std::vector<core::PreparedQuery> queries;
  std::vector<core::QueryCandidates> candidates;  // parallel to queries
};

const ManyCandidateData& many_candidate_data() {
  static const ManyCandidateData data = [] {
    const corpus::Corpus corpus(corpus::scaled_app_classes(0.75), 42);
    std::vector<int> label_of_class(static_cast<std::size_t>(corpus.class_count()), -1);
    std::vector<std::string> names;
    for (int c = 0; c < corpus.class_count(); ++c) {
      if (corpus.specs()[static_cast<std::size_t>(c)].paper_unknown) continue;
      label_of_class[static_cast<std::size_t>(c)] = static_cast<int>(names.size());
      names.push_back(corpus.specs()[static_cast<std::size_t>(c)].name);
    }
    const auto newest = [&](int c) {
      return static_cast<int>(corpus.synthesizer(c).versions().size()) - 1;
    };
    std::vector<const corpus::SampleRef*> refs;
    for (const corpus::SampleRef& ref : corpus.samples()) {
      if (label_of_class[static_cast<std::size_t>(ref.class_idx)] < 0) continue;
      if (newest(ref.class_idx) > 0 && ref.version_idx == newest(ref.class_idx)) continue;
      refs.push_back(&ref);
    }
    std::vector<core::FeatureHashes> train(refs.size());
    std::vector<int> labels(refs.size());
    fhc::util::parallel_for(refs.size(), [&](std::size_t i) {
      train[i] = core::extract_feature_hashes(corpus.sample_bytes(*refs[i]));
      labels[i] = label_of_class[static_cast<std::size_t>(refs[i]->class_idx)];
    });
    ManyCandidateData out;
    out.index = std::make_unique<core::TrainIndex>(train, labels, std::move(names));
    for (int c = 0; c < corpus.class_count(); ++c) {
      if (label_of_class[static_cast<std::size_t>(c)] < 0) continue;
      const corpus::SampleSynthesizer& synth = corpus.synthesizer(c);
      const core::FeatureHashes hashes = core::extract_feature_hashes(
          synth.build(newest(c), synth.samples_per_version().back() + 1));
      out.queries.emplace_back(hashes);
      out.candidates.emplace_back(*out.index, out.queries.back());
    }
    return out;
  }();
  return data;
}

void BM_FeatureRowManyCandidates(benchmark::State& state) {
  // The fill alone (perfbench's core.fill span): each query's probe is
  // done once outside the loop, so a row's time is its candidates' part
  // pairs through the kernel. One item is one row; scored_per_row is
  // the candidates a row scores.
  const ManyCandidateData& data = many_candidate_data();
  const core::TrainIndex& index = *data.index;
  std::vector<float> row(index.n_channels() * static_cast<std::size_t>(index.n_classes()));
  core::RowFillStats stats;
  for (auto _ : state) {
    for (std::size_t q = 0; q < data.queries.size(); ++q) {
      core::fill_feature_row_slice(index, data.queries[q], data.candidates[q],
                                   ssdeep::EditMetric::kDamerauOsa, -1, 0,
                                   index.n_classes(), row, core::kAllChannels, &stats);
      benchmark::DoNotOptimize(row.data());
    }
  }
  const auto rows = static_cast<std::int64_t>(state.iterations()) *
                    static_cast<std::int64_t>(data.queries.size());
  state.SetItemsProcessed(rows);
  state.counters["scored_per_row"] =
      static_cast<double>(stats.candidates_scored) /
      static_cast<double>(std::max<std::int64_t>(rows, 1));
}
BENCHMARK(BM_FeatureRowManyCandidates);

void BM_RuntimeTraceHash(benchmark::State& state) {
  // The runtime channel's per-sample cost: normalize a counter trace
  // (per-event rate + z-score quantization) and fuzzy-hash the resulting
  // byte stream. One 240-interval x 4-event trace, the shape of a
  // four-minute `perf stat -I 1000` collection.
  const runtime::CounterTrace trace =
      runtime::synthesize_trace(runtime::hpc_trace_spec(0), 1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(runtime::hash_trace(trace));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(trace.size()));
}
BENCHMARK(BM_RuntimeTraceHash);

// Same corpus as feature_bench_data() plus the execution-fingerprint
// channel (per-class synthetic workload traces), so the bench pair
// BM_FeatureRowIndexed / BM_FeatureRowIndexedFourChannel isolates what
// the fourth channel adds to the row fill.
const FeatureBenchData& feature_bench_data_four_channel() {
  static const FeatureBenchData data = [] {
    const FeatureBenchData& base = feature_bench_data();
    std::vector<core::FeatureHashes> train = base.train;
    const int k = base.index().n_classes();
    for (std::size_t i = 0; i < train.size(); ++i) {
      runtime::attach_trace(
          train[i], runtime::synthesize_trace(
                        runtime::hpc_trace_spec(base.labels[i]), 500 + i));
    }
    std::vector<std::string> names;
    for (int c = 0; c < k; ++c) names.push_back("class" + std::to_string(c));
    auto index = std::make_unique<core::TrainIndex>(
        train, base.labels, std::move(names), runtime::runtime_channel_set());
    core::FeatureHashes query = base.query;
    runtime::attach_trace(
        query, runtime::synthesize_trace(runtime::hpc_trace_spec(0), 9999));
    return FeatureBenchData{std::move(train), base.labels, std::move(index),
                            std::move(query)};
  }();
  return data;
}

void BM_FeatureRowIndexedFourChannel(benchmark::State& state) {
  // BM_FeatureRowIndexed with the runtime channel in the index: the row
  // widens from 3k to 4k columns and the probe covers one more channel
  // whose same-class candidates genuinely run the edit distance.
  const FeatureBenchData& data = feature_bench_data_four_channel();
  std::vector<float> row(data.index().n_channels() *
                         static_cast<std::size_t>(data.index().n_classes()));
  core::RowFillStats stats;
  for (auto _ : state) {
    core::fill_feature_row(data.index(), data.query,
                           ssdeep::EditMetric::kDamerauOsa, -1, row,
                           core::kAllChannels, &stats);
    benchmark::DoNotOptimize(row.data());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.train.size()) * 4);
  const auto iters = std::max<std::int64_t>(state.iterations(), 1);
  const auto visited = static_cast<double>(stats.candidates_scored + stats.index_skipped);
  state.counters["scored_per_row"] =
      static_cast<double>(stats.candidates_scored) / static_cast<double>(iters);
  state.counters["skip_rate"] =
      visited > 0.0 ? static_cast<double>(stats.index_skipped) / visited : 0.0;
}
BENCHMARK(BM_FeatureRowIndexedFourChannel);

void BM_StreamingUpdateChunks(benchmark::State& state) {
  // Streaming in 4 KiB chunks (the Slurm-prolog collection pattern).
  const auto data = random_bytes(11, 1 << 20);
  for (auto _ : state) {
    ssdeep::FuzzyHasher hasher;
    for (std::size_t off = 0; off < data.size(); off += 4096) {
      hasher.update(std::span<const std::uint8_t>(data).subspan(
          off, std::min<std::size_t>(4096, data.size() - off)));
    }
    benchmark::DoNotOptimize(hasher.digest());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(data.size()));
}
BENCHMARK(BM_StreamingUpdateChunks);

}  // namespace
