#include "fixture.hpp"

#include <cstdio>

#include "core/features.hpp"
#include "util/io_util.hpp"
#include "util/rng.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

using namespace fhc;

namespace perfbench {

namespace {

constexpr std::uint64_t kCorpusSeed = 42;
constexpr double kCorpusScale = 0.75;
// Executable slots a class's queries cycle through: one per round, so
// 2^16 rounds (millions of queries) before a slot could repeat.
constexpr std::uint64_t kExecSlots = 1 << 16;
// Odd, so r -> r * kSlotStride mod kExecSlots is a bijection.
constexpr std::uint64_t kSlotStride = 40503;
// Leads the cached model's file name; the code key after it changes with
// every rebuilt library, so the recipe name only has to change with the
// on-disk layout of the fixture directory.
constexpr const char* kModelRecipe = "v2";

bool newest_version_held_out(const corpus::SampleSynthesizer& synth) {
  return synth.versions().size() > 1;
}

std::uint64_t mix(std::uint64_t a, std::uint64_t b) {
  std::uint64_t state = a ^ (b * 0x9E3779B97F4A7C15ULL);
  return util::splitmix64(state);
}

/// The cache key of the model this binary trains: FNV-1a of the running
/// executable, which links the fitting and serialization code.
std::string model_key() {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const std::uint8_t byte : util::read_file("/proc/self/exe")) {
    h = (h ^ byte) * 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx", static_cast<unsigned long long>(h));
  return hex;
}

}  // namespace

Fixture::Fixture(const std::filesystem::path& dir)
    : corpus_(corpus::scaled_app_classes(kCorpusScale), kCorpusSeed) {
  for (int c = 0; c < corpus_.class_count(); ++c) {
    (corpus_.specs()[static_cast<std::size_t>(c)].paper_unknown ? unknown_ : known_)
        .push_back(c);
  }
  std::filesystem::create_directories(dir);
  model_path_ =
      (dir / ("model-" + std::string(kModelRecipe) + "-" + model_key() + ".fhcb")).string();
  if (!std::filesystem::exists(model_path_)) train(model_path_);
}

void Fixture::train(const std::string& path) {
  const util::Stopwatch watch;
  std::vector<int> label_of_class(static_cast<std::size_t>(corpus_.class_count()), -1);
  std::vector<std::string> names;
  for (const int c : known_) {
    label_of_class[static_cast<std::size_t>(c)] = static_cast<int>(names.size());
    names.push_back(corpus_.specs()[static_cast<std::size_t>(c)].name);
  }
  std::vector<const corpus::SampleRef*> refs;
  for (const corpus::SampleRef& ref : corpus_.samples()) {
    const int label = label_of_class[static_cast<std::size_t>(ref.class_idx)];
    if (label < 0) continue;
    const corpus::SampleSynthesizer& synth = corpus_.synthesizer(ref.class_idx);
    const int newest = static_cast<int>(synth.versions().size()) - 1;
    if (newest_version_held_out(synth) && ref.version_idx == newest) continue;
    refs.push_back(&ref);
  }
  std::vector<core::FeatureHashes> hashes(refs.size());
  std::vector<int> labels(refs.size());
  util::parallel_for(refs.size(), [&](std::size_t i) {
    hashes[i] = core::extract_feature_hashes(corpus_.sample_bytes(*refs[i]));
    labels[i] = label_of_class[static_cast<std::size_t>(refs[i]->class_idx)];
  });
  core::FuzzyHashClassifier model;
  model.fit(hashes, labels, names, core::ClassifierConfig{});
  model.save_binary_file(path);
  std::fprintf(stderr, "perfbench: trained %zu-class model on %zu samples in %.1f s\n",
               names.size(), refs.size(), watch.seconds());
}

std::vector<Source> Fixture::draw(std::uint64_t seed, std::size_t first,
                                  std::size_t count) const {
  // Classes come in rounds: each round is a fresh shuffle of every class,
  // so any run covers the classes evenly (a class's row-fill cost varies
  // by over 10x) and the known:unknown mix stays 73:19, about 4:1. A class
  // appears once per round and takes the round's executable slot, so no
  // two queries share a (class, version, exec) triple.
  const std::size_t per_round = known_.size() + unknown_.size();
  std::vector<Source> out;
  out.reserve(count);
  std::vector<int> round;
  std::size_t round_idx = 0;
  for (std::size_t n = first; n < first + count; ++n) {
    const std::size_t r = n / per_round;
    if (round.empty() || r != round_idx) {
      round = known_;
      round.insert(round.end(), unknown_.begin(), unknown_.end());
      util::Rng rng(mix(seed, r));
      rng.shuffle(round);
      round_idx = r;
    }
    Source s;
    s.class_idx = round[n % per_round];
    const std::uint64_t slot = (static_cast<std::uint64_t>(r) * kSlotStride +
                                mix(seed, ~static_cast<std::uint64_t>(s.class_idx))) %
                               kExecSlots;
    const corpus::SampleSynthesizer& synth = corpus_.synthesizer(s.class_idx);
    if (corpus_.specs()[static_cast<std::size_t>(s.class_idx)].paper_unknown) {
      s.version_idx = static_cast<int>(mix(seed, n) % synth.versions().size());
      s.exec_idx = static_cast<int>(slot);
    } else {
      // Newest release of a known class, in an executable slot the
      // corpus (and so the training set) never enumerates.
      s.version_idx = static_cast<int>(synth.versions().size()) - 1;
      s.exec_idx = synth.samples_per_version().back() + static_cast<int>(slot);
    }
    out.push_back(s);
  }
  return out;
}

std::vector<std::uint8_t> Fixture::image(const Source& source) const {
  return corpus_.synthesizer(source.class_idx).build(source.version_idx, source.exec_idx);
}

void write_queries(const Fixture& fixture, const std::vector<Source>& sources,
                   const std::vector<std::string>& paths) {
  util::parallel_for(sources.size(), [&](std::size_t i) {
    util::write_file(paths[i], fixture.image(sources[i]));
  });
}

}  // namespace perfbench
