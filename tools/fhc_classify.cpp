// fhc-classify: label executables with a trained model (the Slurm-prolog
// side of the paper's envisioned workflow).
//
//   fhc_classify [--unknown-threshold T] MODEL FILE[@TRACE]...
//
// --unknown-threshold T overrides the model's unknown-rejection floor
// for this run: predictions whose winning probability falls below T are
// flagged -1 (exit code 3) regardless of the model's trained or
// calibrated threshold — the deployment-side open-set knob.
//
// All readable files are hashed up front and scored through a single
// predict_batch pass (one parallel feature-matrix build instead of a
// serial per-file predict loop). Prints one line per classified file:
// predicted class (or -1 for unknown), confidence, and the path;
// per-file read/extract failures go to stderr.
//
// FILE@TRACE pairs the executable with a perf-stat counter trace
// (CSV or line-JSON, see src/runtime/) hashed into the model's
// "ssdeep-runtime" channel — for models trained with `fhc_train
// --runtime`. Against a static-triple model the extra digest is simply
// ignored; a four-channel model scores a trace-less file 0 on the
// runtime channel, like a stripped binary on the symbols channel.
//
// Exit codes (prolog scripting contract, also in the usage string):
//   0  every file classified as a known class
//   1  some file could not be read or hashed (takes precedence over 3)
//   2  usage error or unreadable model
//   3  at least one file was flagged unknown
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/trace.hpp"

using namespace fhc;

int main(int argc, char** argv) {
  bool have_unknown_threshold = false;
  double unknown_threshold = 0.0;
  while (argc > 1 && std::strncmp(argv[1], "--", 2) == 0) {
    if (std::strcmp(argv[1], "--unknown-threshold") == 0 && argc > 2) {
      have_unknown_threshold = true;
      unknown_threshold = std::atof(argv[2]);
      if (unknown_threshold < 0.0 || unknown_threshold > 1.0) {
        std::fprintf(stderr,
                     "fhc_classify: --unknown-threshold must be in [0,1]\n");
        return 2;
      }
      argc -= 2;
      argv += 2;
    } else {
      std::fprintf(stderr, "fhc_classify: unknown option %s\n", argv[1]);
      return 2;
    }
  }
  if (argc < 3) {
    std::fprintf(stderr,
                 "usage: fhc_classify [--unknown-threshold T] MODEL FILE[@TRACE]...\n"
                 "exit codes: 0 all files known; 1 read/extract error (wins over 3);\n"
                 "            2 usage or model-load error; 3 some file unknown\n");
    return 2;
  }

  core::FuzzyHashClassifier classifier;
  try {
    classifier = core::FuzzyHashClassifier::load_file(argv[1]);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_classify: %s\n", e.what());
    return 2;
  }
  if (have_unknown_threshold) classifier.set_unknown_threshold(unknown_threshold);

  std::vector<const char*> paths;       // arguments that hashed successfully
  std::vector<core::FeatureHashes> samples;  // parallel to paths
  int errors = 0;
  for (int i = 2; i < argc; ++i) {
    try {
      samples.push_back(runtime::extract_path_spec(runtime::split_path_spec(argv[i])));
      paths.push_back(argv[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fhc_classify: %s: %s\n", argv[i], e.what());
      ++errors;
    }
  }

  int unknowns = 0;
  if (!samples.empty()) {
    // predict_batch stores probabilities in the float Matrix, so the
    // threshold comparison happens at float granularity (same as every
    // batch evaluation path); a probability within float epsilon of the
    // threshold can in principle flag differently than the double-path
    // serial predict() used by fhc_serve.
    ml::Matrix proba;
    const std::vector<int> labels = classifier.predict_batch(samples, &proba);
    for (std::size_t i = 0; i < labels.size(); ++i) {
      double confidence = 0.0;
      for (const float p : proba.row(i)) confidence = std::max(confidence, double{p});
      if (labels[i] == ml::kUnknownLabel) {
        ++unknowns;
        std::printf("-1\t%.2f\t%s\n", confidence, paths[i]);
      } else {
        std::printf("%s\t%.2f\t%s\n",
                    classifier.class_names()[static_cast<std::size_t>(labels[i])]
                        .c_str(),
                    confidence, paths[i]);
      }
    }
  }
  if (errors > 0) return 1;
  return unknowns > 0 ? 3 : 0;
}
