// service::CommandHandler — the front-end-neutral command core of the
// classification daemon.
//
// fhc_serve grew a second front-end (the fhc::net socket server) next to
// the original stdin/stdout line protocol. Both speak the same four
// commands — CLASSIFY, STATS, RELOAD, QUIT — and both must keep the
// service invariants (one model snapshot per reply set, bit-identical
// predictions, admission accounting). This class is the single
// implementation both wrap, so the wire surfaces cannot drift:
//
//   * extract_path(): feature extraction for one path item (reads the
//     file, an `exe@trace` spec attaches the perf-stat trace);
//   * submit_path(): one stdio CLASSIFY item — extraction and submission;
//   * format_prediction(): the canonical "<label>\t<confidence>" text;
//   * stats_line(): the canonical key=value STATS reply;
//   * reload(): model load + service reload with error capture;
//   * handle_line(): the whole stdio line protocol (fhc_serve --stdio
//     and the FIFO recipe), built from the pieces above.
#pragma once

#include <future>
#include <iosfwd>
#include <optional>
#include <string>

#include "core/classifier.hpp"
#include "service/service.hpp"

namespace fhc::service {

class CommandHandler {
 public:
  explicit CommandHandler(ClassificationService& svc) : svc_(svc) {}

  CommandHandler(const CommandHandler&) = delete;
  CommandHandler& operator=(const CommandHandler&) = delete;

  /// One CLASSIFY item in flight: `error` non-empty (extraction/read
  /// failed, future invalid) or `future` valid.
  struct Submission {
    std::future<core::Prediction> future;
    std::string error;
  };

  /// Reads `path_spec` (or "exe@trace": the trace is fingerprinted into
  /// the runtime channel) and extracts its feature hashes into `out`.
  /// Never throws: returns the failure text, empty on success. Anything
  /// that is not a regular file (a FIFO, a device) is refused before a
  /// byte is read. The socket server runs this on the service's pool.
  static std::string extract_path(const std::string& path_spec,
                                  core::FeatureHashes& out);

  /// extract_path() then an unbounded submit — the stdio CLASSIFY item.
  /// Failures land in Submission::error.
  Submission submit_path(const std::string& path_spec);

  /// "<name>\t<confidence>" with the label range-checked against
  /// `model`'s class list (predictions can outlive a RELOAD); out-of-
  /// range and unknown labels print numerically (kUnknownLabel = -1).
  static std::string format_prediction(const core::FuzzyHashClassifier& model,
                                       const core::Prediction& pred);

  /// The canonical one-line key=value STATS reply (no trailing newline).
  std::string stats_line() const;

  struct ReloadResult {
    bool ok = false;
    std::string message;  // the model path on success, the error otherwise
  };

  /// Loads `model_path` (text/v1/v2 sniffed) and swaps it in. Never
  /// throws; in-flight batches finish on their snapshot either way. An
  /// unknown-threshold override set below is re-applied to the fresh
  /// model, so RELOAD cannot silently drop the deployment knob.
  ReloadResult reload(const std::string& model_path);

  /// Deployment override for the open-set rejection threshold
  /// (fhc_serve --unknown-threshold): applied to every model swapped in
  /// via reload(). The caller applies it to the initially-loaded model.
  void set_unknown_threshold_override(double threshold) {
    unknown_override_ = threshold;
  }

  /// Runs one line of the stdio protocol, writing replies (newline-
  /// terminated, unflushed) to `out`. Returns false on QUIT.
  bool handle_line(const std::string& line, std::ostream& out);

  ClassificationService& service() noexcept { return svc_; }
  const ClassificationService& service() const noexcept { return svc_; }

 private:
  ClassificationService& svc_;
  std::optional<double> unknown_override_;
};

}  // namespace fhc::service
