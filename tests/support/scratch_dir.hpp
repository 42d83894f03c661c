// Temporary input files for the CLASSIFY_PATH tests: a per-process
// scratch directory, corpus ELF images, and large non-ELF inputs whose
// extraction is slow enough to observe (the whole-file ssdeep pass
// dominates; ~70 MB/s per core in an optimized build).
#pragma once

#include <unistd.h>

#include <cstddef>
#include <cstdint>
#include <filesystem>
#include <span>
#include <string>
#include <system_error>
#include <vector>

#include "core/features.hpp"
#include "corpus/app_spec.hpp"
#include "corpus/synth_app.hpp"
#include "support/synthetic_hashes.hpp"
#include "util/io_util.hpp"

namespace fhc::testsupport {

/// A fresh directory under the system temp dir, removed with its
/// contents on destruction.
class ScratchDir {
 public:
  explicit ScratchDir(const std::string& tag)
      : root_(std::filesystem::temp_directory_path() /
              ("fhc_" + tag + "_" + std::to_string(::getpid()))) {
    std::filesystem::remove_all(root_);
    std::filesystem::create_directories(root_);
  }
  ~ScratchDir() {
    std::error_code ignored;
    std::filesystem::remove_all(root_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  const std::filesystem::path& root() const noexcept { return root_; }

  std::string write(const std::string& name, const std::vector<std::uint8_t>& bytes) const {
    const std::filesystem::path path = root_ / name;
    util::write_file(path, std::span<const std::uint8_t>(bytes));
    return path.string();
  }

 private:
  std::filesystem::path root_;
};

/// `count` corpus ELF images from the paper's class table, several
/// classes and versions, written under `dir`; paths in order.
inline std::vector<std::string> write_corpus_elfs(const ScratchDir& dir,
                                                  std::size_t count) {
  const std::vector<corpus::AppClassSpec>& specs = corpus::paper_app_classes();
  std::vector<std::string> paths;
  for (std::size_t i = 0; i < count; ++i) {
    const corpus::SampleSynthesizer synth(specs[i % specs.size()], /*corpus_seed=*/42);
    const int version = static_cast<int>(i / specs.size()) %
                        static_cast<int>(synth.versions().size());
    paths.push_back(dir.write("elf" + std::to_string(i), synth.build(version, 0)));
  }
  return paths;
}

/// Size of the "slow" input: about half a second of extraction in an
/// optimized build. Unoptimized and sanitizer builds hash 5-20x slower,
/// so a smaller file keeps a comparable wall time there.
inline std::size_t slow_input_bytes() {
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
  return std::size_t{32} << 20;
#else
  return std::size_t{4} << 20;
#endif
}

/// Writes `bytes` of seeded noise under `dir` and returns the path.
inline std::string write_noise_file(const ScratchDir& dir, const std::string& name,
                                    std::size_t bytes, std::uint64_t seed = 7) {
  return dir.write(name, random_bytes(seed, bytes));
}

/// What serial extraction computes for the file at `path`.
inline core::FeatureHashes features_of(const std::string& path) {
  return core::extract_feature_hashes(util::read_file(path));
}

}  // namespace fhc::testsupport
