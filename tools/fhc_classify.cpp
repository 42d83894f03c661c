// fhc-classify: label executables with a trained model (the Slurm-prolog
// side of the paper's envisioned workflow).
//
//   fhc_classify [--unknown-threshold T] MODEL FILE[@TRACE]...
//   fhc_classify SOCKET FILE[@TRACE]...
//
// The first argument is either a model file or the Unix socket of a
// resident fhc_serve; stat tells the two apart (S_ISSOCK).
//
// With a model, every readable file is hashed up front and scored in one
// pass: one parallel feature-matrix build, then the forest over its
// rows (predict_rows, bit-identical to serial predict).
//
// With a socket — the node's prolog client — each file is one
// CLASSIFY_PATH frame, sent one at a time in argument order on one
// connection; the daemon reads and hashes the file. Relative paths are
// made absolute first, since the daemon resolves them from its own
// working directory. The daemon's open-set threshold is its own
// (fhc_serve --unknown-threshold), so --unknown-threshold with a socket
// is a usage error.
//
// Both modes print the same line per classified file: predicted class
// (or -1 for unknown), confidence, and the path; per-file read/extract
// failures go to stderr.
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
//   2  usage error, or the classifier is unavailable: an unreadable
//      model, or a daemon that cannot be reached or answers BUSY /
//      DEADLINE_EXCEEDED
//   3  at least one file was flagged unknown
#include <sys/stat.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <optional>
#include <string>
#include <system_error>
#include <vector>

#include "core/classifier.hpp"
#include "core/feature_matrix.hpp"
#include "net/client.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/trace.hpp"

using namespace fhc;

namespace {

void print_line(const std::string& label, double confidence, const char* path) {
  std::printf("%s\t%.2f\t%s\n", label.c_str(), confidence, path);
}

/// The path spec as the daemon must see it: exe and trace made absolute
/// (a path that cannot be made absolute goes empty, and the daemon
/// answers ERROR for it).
std::string absolute_spec(const char* arg) {
  const auto absolute = [](const std::string& path) {
    std::error_code ignored;
    return std::filesystem::absolute(path, ignored).string();
  };
  const runtime::PathSpec spec = runtime::split_path_spec(arg);
  std::string out = absolute(spec.exe);
  if (spec.trace) {
    out += '@';
    out += absolute(*spec.trace);
  }
  return out;
}

int classify_local(const char* model_path, std::optional<double> unknown_threshold,
                   int n_paths, char** paths) {
  core::FuzzyHashClassifier classifier;
  try {
    classifier = core::FuzzyHashClassifier::load_file(model_path);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "fhc_classify: %s\n", e.what());
    return 2;
  }
  if (unknown_threshold) classifier.set_unknown_threshold(*unknown_threshold);

  std::vector<const char*> hashed;           // arguments that hashed successfully
  std::vector<core::FeatureHashes> samples;  // parallel to hashed
  int errors = 0;
  for (int i = 0; i < n_paths; ++i) {
    try {
      samples.push_back(runtime::extract_path_spec(runtime::split_path_spec(paths[i])));
      hashed.push_back(paths[i]);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "fhc_classify: %s: %s\n", paths[i], e.what());
      ++errors;
    }
  }

  int unknowns = 0;
  if (!samples.empty()) {
    const ml::Matrix rows =
        core::build_feature_matrix(classifier.index(), samples, classifier.config().metric,
                                   {}, classifier.config().channels);
    std::vector<core::Prediction> predictions(rows.rows());
    classifier.predict_rows(rows, predictions);
    for (std::size_t i = 0; i < predictions.size(); ++i) {
      const core::Prediction& pred = predictions[i];
      if (pred.is_unknown) ++unknowns;
      print_line(pred.is_unknown
                     ? std::to_string(ml::kUnknownLabel)
                     : classifier.class_names()[static_cast<std::size_t>(pred.label)],
                 pred.confidence, hashed[i]);
    }
  }
  if (errors > 0) return 1;
  return unknowns > 0 ? 3 : 0;
}

int classify_remote(const char* socket_path, int n_paths, char** paths) {
  net::BlockingClient client;
  net::Endpoint endpoint;
  endpoint.unix_path = socket_path;
  if (const std::string error = client.connect(endpoint); !error.empty()) {
    std::fprintf(stderr, "fhc_classify: %s\n", error.c_str());
    return 2;
  }
  int errors = 0;
  int unknowns = 0;
  for (int i = 0; i < n_paths; ++i) {
    std::string frame;
    net::encode_classify_path(frame, absolute_spec(paths[i]));
    std::string error = "send failed";
    net::Response reply;
    if (!client.send_bytes(frame) || !client.read_response(reply, &error)) {
      std::fprintf(stderr, "fhc_classify: %s: %s\n", socket_path, error.c_str());
      return 2;
    }
    switch (reply.op) {
      case net::Opcode::kPrediction:
        if (reply.is_unknown) ++unknowns;
        // An empty name is an unknown (-1) or a label past the class
        // list of a model swapped in meanwhile: print the number.
        print_line(reply.text.empty() ? std::to_string(reply.label) : reply.text,
                   reply.confidence, paths[i]);
        break;
      case net::Opcode::kError:
        std::fprintf(stderr, "fhc_classify: %s: %s\n", paths[i], reply.text.c_str());
        ++errors;
        break;
      default:  // BUSY, DEADLINE_EXCEEDED or a reply no CLASSIFY_PATH gets
        std::fprintf(stderr, "fhc_classify: classifier unavailable: %s\n",
                     reply.text.c_str());
        return 2;
    }
  }
  if (errors > 0) return 1;
  return unknowns > 0 ? 3 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::optional<double> unknown_threshold;
  while (argc > 1 && std::strncmp(argv[1], "--", 2) == 0) {
    if (std::strcmp(argv[1], "--unknown-threshold") == 0 && argc > 2) {
      char* end = nullptr;
      const double threshold = std::strtod(argv[2], &end);
      if (end == argv[2] || *end != '\0' || !(threshold >= 0.0 && threshold <= 1.0)) {
        std::fprintf(stderr,
                     "fhc_classify: --unknown-threshold must be in [0,1]\n");
        return 2;
      }
      unknown_threshold = threshold;
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
                 "       fhc_classify SOCKET FILE[@TRACE]...   (ask a running fhc_serve)\n"
                 "exit codes: 0 all files known; 1 read/extract error (wins over 3);\n"
                 "            2 usage error or classifier unavailable; 3 some file unknown\n");
    return 2;
  }

  struct stat st {};
  if (::stat(argv[1], &st) == 0 && S_ISSOCK(st.st_mode)) {
    if (unknown_threshold) {
      std::fprintf(stderr,
                   "fhc_classify: --unknown-threshold applies to a model file; "
                   "set it on fhc_serve\n");
      return 2;
    }
    return classify_remote(argv[1], argc - 2, argv + 2);
  }
  return classify_local(argv[1], unknown_threshold, argc - 2, argv + 2);
}
