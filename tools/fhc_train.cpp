// fhc-train: train a Fuzzy Hash Classifier from a labelled directory tree
// and write the model file.
//
//   fhc_train [--text] [--runtime] [--calibrate[=FPR]] ROOT MODEL
//             [threshold] [n_trees]
//
// ROOT follows the sciCORE layout the paper scrapes:
//   ROOT/<ApplicationClass>/<version>/<executable>
// Every regular file below ROOT is a sample labelled by its top-level
// directory. Use `fhc_classify MODEL FILE...` afterwards.
//
// --runtime trains with the execution-fingerprint channel ("ssdeep-runtime")
// in addition to the static triple: a sample <exe> picks up its counter
// trace from a sibling <exe>.trace / <exe>.trace.csv / <exe>.trace.json
// (perf stat -I interval output, CSV or line-JSON — see src/runtime/).
// Samples without a trace train with an empty runtime digest, exactly like
// stripped binaries on the symbols channel.
//
// --calibrate enables open-set rejection: fit() holds out a stratified
// slice of the training set, scores it with a calibration forest, and
// records the FPR-quantile (default 0.05) of the held-out max
// probabilities in the model as the unknown-rejection threshold —
// fhc_classify / fhc_serve then flag never-seen applications instead of
// force-labeling them (paper Table 3's unknown pool).
//
// MODEL is written as the binary v3 sectioned container ("FHCMDLB3"):
// normalized digest text, per-channel gram indexes, and the forest plan
// laid out for zero-copy mmap attach, making `fhc_serve` RELOAD O(mmap)
// at any corpus size. --text writes the text export instead, which every
// loader still reads (and rebuilds the index from). Every consumer
// (`fhc_classify`, `fhc_serve`, `fhc_inspect`) sniffs the format. Binary
// models of an older version (v1, v2) or with a dense FHCFRST1 forest
// are refused; re-run this tool. A binary MODEL is replaced by rename,
// so a daemon serving the old file keeps a consistent view of it.
//
// Demo without real data: materialize the synthetic corpus first —
//   FHC_SCALE=0.05 ./build/bench/table3_unknown_classes   (or use the
//   Corpus::materialize API), then point ROOT at it.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <map>

#include "core/classifier.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/trace.hpp"
#include "util/io_util.hpp"

using namespace fhc;

namespace {

/// Trace-file suffixes recognized next to a sample executable.
constexpr const char* kTraceSuffixes[] = {".trace", ".trace.csv", ".trace.json"};

bool is_trace_file(const std::filesystem::path& path) {
  const std::string name = path.filename().string();
  for (const char* suffix : kTraceSuffixes) {
    if (name.ends_with(suffix)) return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  bool text = false;
  bool runtime = false;
  bool calibrate = false;
  double target_fpr = 0.05;
  while (argc > 1) {
    if (std::strcmp(argv[1], "--text") == 0) {
      text = true;
    } else if (std::strcmp(argv[1], "--runtime") == 0) {
      runtime = true;
    } else if (std::strcmp(argv[1], "--calibrate") == 0) {
      calibrate = true;
    } else if (std::strncmp(argv[1], "--calibrate=", 12) == 0) {
      calibrate = true;
      target_fpr = std::atof(argv[1] + 12);
      if (target_fpr < 0.0 || target_fpr > 1.0) {
        std::fprintf(stderr, "fhc_train: --calibrate FPR must be in [0,1]\n");
        return 2;
      }
    } else if (std::strncmp(argv[1], "--", 2) == 0) {
      // Includes the retired --binary: binary is the default now.
      std::fprintf(stderr, "fhc_train: unknown option %s\n", argv[1]);
      return 2;
    } else {
      break;
    }
    --argc;
    ++argv;
  }
  if (argc < 3 || argc > 5) {
    std::fprintf(stderr,
                 "usage: fhc_train [--text] [--runtime] [--calibrate[=FPR]] "
                 "ROOT MODEL [threshold=0.3] [n_trees=200]\n");
    return 2;
  }
  const std::filesystem::path root = argv[1];
  const std::string model_path = argv[2];
  const double threshold = argc > 3 ? std::atof(argv[3]) : 0.3;
  const int n_trees = argc > 4 ? std::atoi(argv[4]) : 200;

  std::vector<core::FeatureHashes> hashes;
  std::vector<int> labels;
  std::vector<std::string> class_names;
  std::map<std::string, int> label_of;
  std::size_t stripped = 0;
  std::size_t traced = 0;

  try {
    for (const auto& path : util::list_files(root)) {
      if (runtime && is_trace_file(path)) continue;  // sidecar, not a sample
      const auto relative = std::filesystem::relative(path, root);
      if (relative.begin() == relative.end()) continue;
      const std::string class_name = relative.begin()->string();
      const auto image = util::read_file(path);
      core::FeatureHashes sample = core::extract_feature_hashes(image);
      if (!sample.has_symbols) ++stripped;
      if (runtime) {
        for (const char* suffix : kTraceSuffixes) {
          const std::string trace_path = path.string() + suffix;
          if (!std::filesystem::exists(trace_path)) continue;
          runtime::attach_trace(sample, runtime::load_trace_file(trace_path));
          ++traced;
          break;
        }
      }
      const auto [it, inserted] =
          label_of.try_emplace(class_name, static_cast<int>(class_names.size()));
      if (inserted) class_names.push_back(class_name);
      hashes.push_back(std::move(sample));
      labels.push_back(it->second);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_train: %s\n", e.what());
    return 1;
  }
  if (hashes.empty()) {
    std::fprintf(stderr, "fhc_train: no samples under %s\n", root.c_str());
    return 1;
  }
  if (runtime) {
    std::printf("collected %zu samples in %zu classes (%zu stripped, %zu traced)\n",
                hashes.size(), class_names.size(), stripped, traced);
  } else {
    std::printf("collected %zu samples in %zu classes (%zu stripped)\n",
                hashes.size(), class_names.size(), stripped);
  }

  core::ClassifierConfig config;
  config.forest.n_estimators = n_trees;
  config.confidence_threshold = threshold;
  if (calibrate) {
    config.calibrate_rejection = true;
    config.calibration_target_fpr = target_fpr;
  }
  if (runtime) config.channel_set = runtime::runtime_channel_set();
  core::FuzzyHashClassifier classifier;
  try {
    classifier.fit(hashes, labels, class_names, config);
    if (text) {
      classifier.save_file(model_path);
    } else {
      classifier.save_binary_file(model_path);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_train: %s\n", e.what());
    return 1;
  }
  const auto importance = classifier.channel_importance();
  const core::ChannelSet& channels = classifier.index().channels();
  std::printf("%s model written to %s (threshold %.2f, %d trees)\n",
              text ? "text" : "binary", model_path.c_str(), threshold, n_trees);
  if (calibrate) {
    const core::RejectionCalibration& cal = classifier.calibration();
    std::printf("calibrated unknown threshold %.4f (target FPR %.3f, %u held out)\n",
                cal.threshold, cal.target_fpr, cal.holdout_count);
  }
  std::printf("channel importance:");
  for (std::size_t f = 0; f < channels.size(); ++f) {
    std::printf("%s %s %.3f", f == 0 ? "" : ",", channels[f].name.c_str(),
                importance[f]);
  }
  std::printf("\n");
  return 0;
}
