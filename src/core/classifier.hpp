// The Fuzzy Hash Classifier — the paper's contribution.
//
// fit():      train hashes + labels -> reference TrainIndex (training
//             digests prepared once: run-normalized parts bucketed by
//             blocksize, 7-grams inverted per channel), leave-self-out
//             similarity feature matrix, balanced class weights, Random
//             Forest.
// predict():  hashes -> similarity features vs the index -> forest
//             probabilities -> argmax label, demoted to kUnknownLabel when
//             the winning probability is below the confidence threshold.
//
// The confidence threshold is a *deployment* knob: it trades unknown-
// detection recall against known-class accuracy (paper Figure 3); tune it
// with the pipeline's inner grid search, or set it manually for stricter
// screening (paper Section 5, "Confidence Threshold").
//
// Open-set rejection (paper Table 3's 19-class unknown pool) adds a
// *calibrated* floor on top: fit() with calibrate_rejection holds out known
// samples, scores them with a calibration forest, and records the
// target-FPR quantile of their max probabilities in the model. Predictions
// below the effective threshold come back as is_unknown / kUnknownLabel
// instead of a force-label.
#pragma once

#include <algorithm>
#include <array>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/feature_matrix.hpp"
#include "core/features.hpp"
#include "ml/dataset.hpp"
#include "ml/random_forest.hpp"
#include "ssdeep/compare.hpp"

namespace fhc::util {
class SectionedWriter;
}  // namespace fhc::util

namespace fhc::core {

/// First 8 bytes of a binary model file; distinct from any text model
/// (those start with the text magic line) so load_file can sniff the
/// format. v3 is the sectioned container (util::SectionedView) whose
/// TrainIndex pools and forest attach zero-copy. Every other magic of
/// the family — the v1 blob, v2 containers with their training gram
/// pool — is still recognized as binary, so loading it fails with the
/// fix (retrain with fhc_train, or load the text model) instead of a
/// text-parser error.
inline constexpr std::string_view kBinaryModelMagic = "FHCMDLB3";
inline constexpr std::string_view kBinaryModelMagicFamily = "FHCMDLB";

/// The refusal of a binary model in a retired format: names its magic
/// (the file's first bytes, non-printable ones shown as '?') and the fix.
std::string retired_binary_model_message(std::span<const std::byte> bytes);

struct ClassifierConfig {
  ml::ForestParams forest;
  ssdeep::EditMetric metric = ssdeep::EditMetric::kDamerauOsa;
  double confidence_threshold = 0.50;
  bool balanced_class_weights = true;      // paper: inverse-frequency weights
  ChannelMask channels = kAllChannels;     // feature-ablation knob
  ChannelSet channel_set;                  // feature-channel roster (default:
                                           // the paper's static triple)
  // Open-set calibration (fit-time only; the *result* is what a model file
  // carries). When enabled, fit() holds out a stratified known-class slice,
  // trains a calibration forest on the rest, and picks the rejection
  // threshold as the calibration_target_fpr-quantile of the held-out
  // max-probability scores — so at most that fraction of known samples is
  // rejected as "unknown" (paper Table 3's open-set pool, Figure 3's
  // threshold trade-off).
  bool calibrate_rejection = false;
  double calibration_target_fpr = 0.05;
  double calibration_holdout_fraction = 0.25;
  std::uint64_t calibration_seed = 42;
};

/// The calibrated unknown-rejection decision a fitted/loaded model carries.
/// Disabled (the default, and what every pre-calibration model file loads
/// as) means "never reject beyond the deployment confidence threshold" —
/// exactly the legacy behavior.
struct RejectionCalibration {
  bool enabled = false;
  double threshold = 0.0;       // reject when max-probability < threshold
  double target_fpr = 0.0;      // known-class rejection budget it was fit to
  std::uint32_t holdout_count = 0;  // held-out scores behind the quantile
};

/// One prediction with its evidence.
struct Prediction {
  int label = ml::kUnknownLabel;  // model label or kUnknownLabel
  double confidence = 0.0;        // winning class probability
  bool is_unknown = false;        // label was demoted to kUnknownLabel
  std::vector<double> proba;      // full distribution over known classes
};

class FuzzyHashClassifier {
 public:
  /// `labels[i]` in 0..K-1 (known classes only); `class_names.size() == K`.
  void fit(const std::vector<FeatureHashes>& train_hashes,
           const std::vector<int>& labels, std::vector<std::string> class_names,
           const ClassifierConfig& config);

  bool fitted() const noexcept { return index_ != nullptr; }

  /// Predict one sample from its fuzzy hashes.
  Prediction predict(const FeatureHashes& sample) const;

  /// Forest pass over a prebuilt similarity row of row_width() floats —
  /// predict(s) == predict_from_row(fill_feature_row(index(), s, ...)).
  /// Lets callers that build rows themselves (the classification
  /// service's scoring task) reuse the exact threshold/argmax semantics
  /// of predict().
  Prediction predict_from_row(std::span<const float> row) const;

  /// Block forest pass over many prebuilt rows: one tree-major
  /// FlatForest pass per row block instead of a forest walk per row,
  /// bit-identical to predict_from_row on each row (same double
  /// accumulation order). `out.size()` must equal `rows.rows()`. When
  /// `pool` is given and there is more than one block, blocks fan out
  /// across it (disjoint output slots — still bit-identical).
  void predict_rows(const ml::Matrix& rows, std::span<Prediction> out,
                    util::ThreadPool* pool = nullptr) const;

  /// Width of one similarity feature row (n_channels * n_classes).
  std::size_t row_width() const;

  /// Batch prediction (parallel). Returns labels; `out_proba`, if given,
  /// receives the probability matrix (rows x K).
  std::vector<int> predict_batch(const std::vector<FeatureHashes>& samples,
                                 ml::Matrix* out_proba = nullptr) const;

  /// Labels from an existing probability matrix at a given threshold —
  /// lets threshold sweeps reuse one expensive predict_proba pass.
  std::vector<int> labels_from_proba(const ml::Matrix& proba, double threshold) const;

  /// Per-column forest importances (n_channels*K entries).
  std::vector<double> column_importances() const;

  /// Importances aggregated per feature channel and normalized — exactly
  /// Table 5 for a static-triple model; one extra entry per dynamic
  /// channel otherwise. Order matches index().channels().
  std::vector<double> channel_importance() const;

  const TrainIndex& index() const { return *index_; }
  const ml::RandomForest& forest() const noexcept { return forest_; }
  const ClassifierConfig& config() const noexcept { return config_; }
  const RejectionCalibration& calibration() const noexcept { return calibration_; }
  const std::vector<std::string>& class_names() const;

  /// Adjust the deployment threshold without refitting.
  void set_confidence_threshold(double threshold) {
    config_.confidence_threshold = threshold;
  }

  /// Deployment override for the unknown-rejection threshold: enables
  /// rejection at exactly `threshold` without refitting (replaces any
  /// fit-time calibration). Saved models carry the override.
  void set_unknown_threshold(double threshold) {
    calibration_.enabled = true;
    calibration_.threshold = threshold;
  }

  /// The max-probability floor predictions must clear to keep their argmax
  /// label: the deployment confidence threshold, raised to the calibrated
  /// rejection threshold when calibration is enabled.
  double effective_reject_threshold() const noexcept {
    return calibration_.enabled
               ? std::max(config_.confidence_threshold, calibration_.threshold)
               : config_.confidence_threshold;
  }

  /// Adjust the channel-ablation mask without refitting (disabled
  /// channels score constant 0 in the feature row — the trees trained on
  /// them lose their signal, which is the point of an ablation).
  void set_channel_mask(const ChannelMask& mask) { config_.channels = mask; }

  /// Serializes the fitted model (config, class names, reference digests,
  /// forest) as versioned text — train once on a login node, classify from
  /// a Slurm prolog without refitting. Digests are stored in the raw
  /// "bs:p1:p2" text form; load() rebuilds the prepared comparison index
  /// from them. Throws std::runtime_error on malformed or
  /// version-mismatched input.
  void save(std::ostream& out) const;
  void load(std::istream& in);
  void save_file(const std::string& path) const;

  /// Binary model format v3 ("FHCMDLB3"): a util::SectionedWriter
  /// container holding the text preamble (config, class names, reference
  /// digests — identical bytes to the text format's midsection), the
  /// TrainIndex's normalized digest text and CSR gram indexes
  /// (TrainIndex::serialize), and the forest's binary SoA image
  /// ("FHCFRST2", sparse leaves) — every section 64-byte aligned and
  /// checksummed. save_binary -> load_binary -> save_binary round-trips
  /// byte-identically, and loading prepares no digest, builds no index
  /// and builds no per-tree view: everything attaches in place.
  void save_binary(std::ostream& out) const;

  /// save_binary to `path` with the crash discipline a daemon mmap'ing
  /// the model needs: sibling temp file, fsync, rename, directory fsync
  /// (util::SectionedWriter::write_file).
  void save_binary_file(const std::string& path) const;

  /// Loads a v3 container from `bytes` without copying the forest or
  /// TrainIndex sections — the compiled plan and the index pools reference
  /// them in place. `keepalive` (e.g. the util::ModelMap the bytes come
  /// from) is retained for the model's lifetime; pass nullptr only when
  /// `bytes` outlives the model. Throws std::runtime_error on a damaged
  /// container, and on any other binary model magic or a retired
  /// FHCFRST1 forest image, naming the fix.
  void load_binary(std::span<const std::byte> bytes,
                   std::shared_ptr<const void> keepalive);

  /// True when `bytes` starts with a binary model magic (v3, or a
  /// retired version that load_binary rejects).
  static bool is_binary_model(std::span<const std::byte> bytes);

  /// Loads either format: sniffs the magic, mmaps binary models
  /// (util::ModelMap) for a zero-copy load, falls back to the text parser
  /// otherwise.
  static FuzzyHashClassifier load_file(const std::string& path);

 private:
  /// Stratified holdout -> calibration fit -> target-FPR quantile of the
  /// held-out max-probability scores. Deterministic in config.calibration_seed.
  static RejectionCalibration run_calibration(
      const std::vector<FeatureHashes>& train_hashes,
      const std::vector<int>& labels,
      const std::vector<std::string>& class_names,
      const ClassifierConfig& config);
  void save_preamble(std::ostream& out) const;
  /// Fills `preamble`/`forest` and adds every v3 section to `writer`
  /// (referencing the two strings and the live index pools — all must
  /// outlive the final write).
  void build_sections(util::SectionedWriter& writer, std::string& preamble,
                      std::string& forest) const;
  Prediction prediction_from_proba(std::vector<double> proba) const;

  std::unique_ptr<TrainIndex> index_;
  ml::RandomForest forest_;
  ClassifierConfig config_;
  RejectionCalibration calibration_;
};

}  // namespace fhc::core
