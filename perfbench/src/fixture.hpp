// The benchmark fixture: a v2 model trained on corpus ELF images, and the
// seeded query inputs each workload sends to the daemon.
//
// The model covers the 73 known classes of scaled_app_classes(0.75) and
// is trained on every version of each known class except its newest (the
// paper's "recognize the next release" case). It is a function of fixed
// constants and of the code that trains and stores it, so it is cached on
// disk under a key derived from the benchmark binary (which links that
// code): a rebuilt library retrains it, a new seed does not.
//
// A query binary is a corpus sample the model has never seen: the newest
// version of a known class with an executable slot past the ones the
// corpus enumerates, or any sample of one of the 19 unknown-pool classes
// (73:19, about 4:1). The seed decides which samples and in which order;
// no two queries of one seed share a (class, version, exec) triple, so no
// two cold queries share a file.
#pragma once

#include <cstdint>
#include <filesystem>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "corpus/corpus.hpp"

namespace perfbench {

/// One corpus sample, possibly outside the slots the corpus enumerates.
struct Source {
  int class_idx = 0;
  int version_idx = 0;
  int exec_idx = 0;
};

class Fixture {
 public:
  /// Opens the cached model under `dir` that this binary trained, training
  /// and saving it first when it is missing.
  explicit Fixture(const std::filesystem::path& dir);

  const std::string& model_path() const noexcept { return model_path_; }
  int known_class_count() const noexcept { return static_cast<int>(known_.size()); }

  /// Queries `first .. first+count-1` of the stream `seed` selects. The
  /// stream comes in rounds of every class once, in a seeded order; query
  /// n depends only on (seed, n), so a stream can be extended.
  std::vector<Source> draw(std::uint64_t seed, std::size_t first, std::size_t count) const;

  /// The ELF image of `source` (deterministic).
  std::vector<std::uint8_t> image(const Source& source) const;

 private:
  void train(const std::string& path);

  fhc::corpus::Corpus corpus_;
  std::vector<int> known_;    // corpus class indices with a model label
  std::vector<int> unknown_;  // the unknown-pool classes
  std::string model_path_;
};

/// Writes the ELF images of `sources` to `paths`, in parallel.
void write_queries(const Fixture& fixture, const std::vector<Source>& sources,
                   const std::vector<std::string>& paths);

}  // namespace perfbench
