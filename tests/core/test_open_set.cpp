// Open-set rejection end to end: the paper's Table-3 scenario — a model
// trained on known HPC applications must flag applications from classes
// it never saw — driven through fit-time calibration instead of a
// hand-picked confidence threshold.
//
// The fixture trains on a known-class subset of the synthetic corpus
// and holds three whole classes out as the "foreign" pool (never
// trained, never calibrated on). The load-bearing properties:
//
//  * calibration picks a data-driven threshold and records how it was
//    chosen (target FPR, holdout size);
//  * at that threshold the foreign pool is mostly rejected while
//    known-class test samples keep their labels — and every sample the
//    calibrated model does NOT reject gets the identical label the
//    uncalibrated model assigns (rejection only ever abstains, it never
//    relabels);
//  * the calibration block survives text and binary round-trips, and a
//    deployment override (set_unknown_threshold) behaves like a
//    calibrated floor;
//  * fuzz-found loader hardening stays fixed (FuzzRegression tests with
//    their reproducers under tests/fuzz/corpus/fuzz_model_load/).
#include <gtest/gtest.h>

#include <cstddef>
#include <set>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "corpus/corpus.hpp"
#include "ml/dataset.hpp"

namespace fhc::core {
namespace {

struct Fixture {
  std::vector<FeatureHashes> train_hashes;
  std::vector<int> train_labels;
  std::vector<FeatureHashes> test_hashes;
  std::vector<int> test_labels;
  std::vector<std::string> names;
  std::vector<FeatureHashes> foreign_hashes;  // classes never trained on
};

Fixture make_fixture() {
  auto specs = corpus::scaled_app_classes(0.12);
  const std::set<std::string> known_names{
      "Velvet", "HMMER",  "BLAT",   "Exonerate", "Trinity",  "Stacks",
      "canu",   "Subread", "RSEM",  "MUMmer",    "ViennaRNA", "OpenBabel"};
  const std::set<std::string> foreign_names{"MCL", "Gurobi", "METIS"};
  std::vector<corpus::AppClassSpec> keep;
  for (const auto& spec : specs) {
    if (known_names.count(spec.name) || foreign_names.count(spec.name)) {
      keep.push_back(spec);
    }
  }
  corpus::Corpus corpus(keep, 42);
  Fixture fx;
  int next_label = 0;
  std::vector<int> label_of_class(static_cast<std::size_t>(corpus.class_count()),
                                  -1);
  for (int c = 0; c < corpus.class_count(); ++c) {
    const auto& name = corpus.specs()[static_cast<std::size_t>(c)].name;
    if (foreign_names.count(name)) continue;  // held out entirely
    label_of_class[static_cast<std::size_t>(c)] = next_label++;
    fx.names.push_back(name);
  }
  for (const auto& ref : corpus.samples()) {
    const FeatureHashes hashes = extract_feature_hashes(corpus.sample_bytes(ref));
    const int label = label_of_class[static_cast<std::size_t>(ref.class_idx)];
    if (label < 0) {
      fx.foreign_hashes.push_back(hashes);
    } else if (ref.version_idx == 0) {
      fx.test_hashes.push_back(hashes);  // hold out the oldest version
      fx.test_labels.push_back(label);
    } else {
      fx.train_hashes.push_back(hashes);
      fx.train_labels.push_back(label);
    }
  }
  return fx;
}

const Fixture& fixture() {
  static const Fixture fx = make_fixture();
  return fx;
}

/// confidence_threshold 0 so every rejection below is the calibration's
/// doing — the legacy knob contributes nothing.
ClassifierConfig calibrated_config() {
  ClassifierConfig config;
  config.forest.n_estimators = 40;
  config.forest.seed = 3;
  config.confidence_threshold = 0.0;
  config.calibrate_rejection = true;
  config.calibration_target_fpr = 0.10;
  return config;
}

const FuzzyHashClassifier& calibrated_model() {
  static const FuzzyHashClassifier clf = [] {
    FuzzyHashClassifier model;
    const Fixture& fx = fixture();
    model.fit(fx.train_hashes, fx.train_labels, fx.names, calibrated_config());
    return model;
  }();
  return clf;
}

TEST(OpenSetCalibration, FitRecordsDataDrivenThreshold) {
  const RejectionCalibration& cal = calibrated_model().calibration();
  EXPECT_TRUE(cal.enabled);
  EXPECT_GT(cal.threshold, 0.0);
  EXPECT_LE(cal.threshold, 1.0);
  EXPECT_DOUBLE_EQ(cal.target_fpr, 0.10);
  EXPECT_GT(cal.holdout_count, 0u);
  // Stratified holdout never eats more than half the training set.
  EXPECT_LE(cal.holdout_count, fixture().train_hashes.size() / 2 + 1);
  EXPECT_DOUBLE_EQ(calibrated_model().effective_reject_threshold(),
                   cal.threshold);
}

TEST(OpenSetCalibration, CalibrationIsDeterministic) {
  const Fixture& fx = fixture();
  FuzzyHashClassifier again;
  again.fit(fx.train_hashes, fx.train_labels, fx.names, calibrated_config());
  EXPECT_DOUBLE_EQ(again.calibration().threshold,
                   calibrated_model().calibration().threshold);
  EXPECT_EQ(again.calibration().holdout_count,
            calibrated_model().calibration().holdout_count);
}

TEST(OpenSetCalibration, ForeignClassesAreMostlyRejected) {
  // Table-3 scenario: the unknown pool must trip the calibrated floor.
  const Fixture& fx = fixture();
  std::size_t rejected = 0;
  for (const FeatureHashes& hashes : fx.foreign_hashes) {
    const Prediction pred = calibrated_model().predict(hashes);
    if (pred.is_unknown) {
      ++rejected;
      EXPECT_EQ(pred.label, ml::kUnknownLabel);
    }
  }
  ASSERT_FALSE(fx.foreign_hashes.empty());
  EXPECT_GE(static_cast<double>(rejected) / fx.foreign_hashes.size(), 0.5)
      << rejected << " of " << fx.foreign_hashes.size() << " foreign rejected";
}

TEST(OpenSetCalibration, KnownClassRejectionStaysNearTargetFpr) {
  // The threshold was chosen for <=10% FPR on held-out known samples;
  // the (disjoint, same-generator) test split must land in the same
  // regime. The slack absorbs split-to-split variance, not a broken
  // calibrator: uncalibrated rejection here is 0%.
  const Fixture& fx = fixture();
  std::size_t rejected = 0;
  for (const FeatureHashes& hashes : fx.test_hashes) {
    if (calibrated_model().predict(hashes).is_unknown) ++rejected;
  }
  ASSERT_FALSE(fx.test_hashes.empty());
  EXPECT_LE(static_cast<double>(rejected) / fx.test_hashes.size(), 0.35)
      << rejected << " of " << fx.test_hashes.size() << " known rejected";
}

TEST(OpenSetCalibration, RejectionOnlyAbstainsNeverRelabels) {
  // Zero known-class accuracy regression: every non-rejected prediction
  // must match what the identically-seeded uncalibrated model says.
  const Fixture& fx = fixture();
  ClassifierConfig plain = calibrated_config();
  plain.calibrate_rejection = false;
  FuzzyHashClassifier uncalibrated;
  uncalibrated.fit(fx.train_hashes, fx.train_labels, fx.names, plain);
  for (const FeatureHashes& hashes : fx.test_hashes) {
    const Prediction cal = calibrated_model().predict(hashes);
    const Prediction ref = uncalibrated.predict(hashes);
    if (!cal.is_unknown) {
      EXPECT_EQ(cal.label, ref.label);
      EXPECT_DOUBLE_EQ(cal.confidence, ref.confidence);
    }
  }
}

TEST(OpenSetCalibration, BatchAndSerialPredictionsAgree) {
  const Fixture& fx = fixture();
  const std::vector<int> batch = calibrated_model().predict_batch(fx.test_hashes);
  ASSERT_EQ(batch.size(), fx.test_hashes.size());
  for (std::size_t i = 0; i < fx.test_hashes.size(); ++i) {
    const Prediction serial = calibrated_model().predict(fx.test_hashes[i]);
    // predict_batch thresholds at float precision (documented in
    // fhc_classify); on this fixture no score sits within float epsilon
    // of the threshold, so the decisions must agree exactly.
    EXPECT_EQ(batch[i] == ml::kUnknownLabel, serial.is_unknown) << "sample " << i;
    if (batch[i] != ml::kUnknownLabel) {
      EXPECT_EQ(batch[i], serial.label);
    }
  }
}

TEST(OpenSetCalibration, CalibrationSurvivesTextRoundTrip) {
  std::ostringstream saved;
  calibrated_model().save(saved);
  std::istringstream in(saved.str());
  FuzzyHashClassifier loaded;
  loaded.load(in);
  EXPECT_TRUE(loaded.calibration().enabled);
  EXPECT_DOUBLE_EQ(loaded.calibration().threshold,
                   calibrated_model().calibration().threshold);
  EXPECT_DOUBLE_EQ(loaded.calibration().target_fpr,
                   calibrated_model().calibration().target_fpr);
  EXPECT_EQ(loaded.calibration().holdout_count,
            calibrated_model().calibration().holdout_count);
  // And the reloaded model still prints the identical bytes.
  std::ostringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), saved.str());
}

TEST(OpenSetCalibration, CalibrationSurvivesBinaryRoundTrips) {
  std::ostringstream saved;
  calibrated_model().save_binary(saved);
  const std::string bytes = saved.str();
  FuzzyHashClassifier loaded;
  loaded.load_binary(
      std::span<const std::byte>(reinterpret_cast<const std::byte*>(bytes.data()),
                                 bytes.size()),
      nullptr);
  EXPECT_TRUE(loaded.calibration().enabled);
  EXPECT_DOUBLE_EQ(loaded.calibration().threshold,
                   calibrated_model().calibration().threshold);
  EXPECT_EQ(loaded.calibration().holdout_count,
            calibrated_model().calibration().holdout_count);
}

TEST(OpenSetCalibration, UncalibratedModelsKeepLegacyByteLayout) {
  // A model without calibration must serialize without any calibration
  // line — static-triple models stay byte-identical to the pre-open-set
  // format, and legacy parsers never see an unknown tag.
  const Fixture& fx = fixture();
  ClassifierConfig plain = calibrated_config();
  plain.calibrate_rejection = false;
  FuzzyHashClassifier clf;
  clf.fit(fx.train_hashes, fx.train_labels, fx.names, plain);
  std::ostringstream saved;
  clf.save(saved);
  EXPECT_EQ(saved.str().find("calibration"), std::string::npos);
  EXPECT_FALSE(clf.calibration().enabled);
  // Legacy loads synthesize "never reject beyond the threshold".
  std::istringstream in(saved.str());
  FuzzyHashClassifier loaded;
  loaded.load(in);
  EXPECT_FALSE(loaded.calibration().enabled);
  EXPECT_DOUBLE_EQ(loaded.effective_reject_threshold(), 0.0);
}

TEST(OpenSetCalibration, ManualOverrideActsAsFloor) {
  const Fixture& fx = fixture();
  ClassifierConfig plain = calibrated_config();
  plain.calibrate_rejection = false;
  FuzzyHashClassifier clf;
  clf.fit(fx.train_hashes, fx.train_labels, fx.names, plain);
  clf.set_unknown_threshold(1.0);  // rejection is `confidence < T`
  EXPECT_TRUE(clf.calibration().enabled);
  EXPECT_EQ(clf.calibration().holdout_count, 0u);  // marks a manual override
  for (std::size_t i = 0; i < fx.test_hashes.size(); i += 5) {
    const Prediction pred = clf.predict(fx.test_hashes[i]);
    // Everything below certainty rejects under a floor of 1.0.
    EXPECT_TRUE(pred.is_unknown || pred.confidence >= 1.0);
  }
  // The override serializes like a calibration and survives a reload.
  std::ostringstream saved;
  clf.save(saved);
  EXPECT_NE(saved.str().find("calibration"), std::string::npos);
  std::istringstream in(saved.str());
  FuzzyHashClassifier loaded;
  loaded.load(in);
  EXPECT_TRUE(loaded.calibration().enabled);
  EXPECT_DOUBLE_EQ(loaded.calibration().threshold, 1.0);
  EXPECT_EQ(loaded.calibration().holdout_count, 0u);
}

TEST(OpenSetCalibration, CalibrationRequiresEnoughSamples) {
  // One sample per class leaves nothing to hold out: fit must say so
  // instead of silently calibrating on nothing.
  const Fixture& fx = fixture();
  std::vector<FeatureHashes> tiny;
  std::vector<int> labels;
  std::vector<bool> seen(fx.names.size(), false);
  for (std::size_t i = 0; i < fx.train_hashes.size(); ++i) {
    const auto label = static_cast<std::size_t>(fx.train_labels[i]);
    if (seen[label]) continue;
    seen[label] = true;
    tiny.push_back(fx.train_hashes[i]);
    labels.push_back(fx.train_labels[i]);
  }
  FuzzyHashClassifier clf;
  EXPECT_THROW(clf.fit(tiny, labels, fx.names, calibrated_config()),
               std::invalid_argument);
}

// ---- fuzz-found loader hardening --------------------------------------
//
// Reproducers for these live under tests/fuzz/corpus/fuzz_model_load/
// (repro_huge_classes, repro_huge_train); the tests pin the fix so the
// caps cannot regress even when the fuzz targets are not built.

std::string preamble_with(const std::string& classes_line,
                          const std::string& train_line) {
  return "fhc-fuzzy-hash-classifier-v1\nmetric 0\nthreshold 0.5\nbalanced 1\n" +
         std::string("channels 1 1 1\n") + classes_line + "\n" + train_line +
         "\n";
}

TEST(FuzzRegression, HugeDeclaredClassCountIsRejectedNotAllocated) {
  // fuzz_model_load: "classes 2000000000" used to reserve gigabytes
  // before the first class name failed to parse — an OOM DoS from a
  // 100-byte file. The loader now caps the declared count.
  std::istringstream in(preamble_with("classes 2000000000", "train 0"));
  FuzzyHashClassifier clf;
  EXPECT_THROW(clf.load(in), std::runtime_error);
}

TEST(FuzzRegression, HugeDeclaredTrainCountIsRejectedNotAllocated) {
  std::istringstream in(
      preamble_with("classes 1\nsolo", "train 99999999999"));
  FuzzyHashClassifier clf;
  EXPECT_THROW(clf.load(in), std::runtime_error);
}

TEST(FuzzRegression, MalformedCalibrationLineIsRejected) {
  // A calibration line with an out-of-range threshold (or junk fields)
  // must fail the load, not clamp silently: the daemon would otherwise
  // serve with a rejection policy nobody chose.
  for (const std::string line :
       {"calibration 1.5 0.05 3", "calibration nope 0.05 3",
        "calibration 0.5 -0.1 3"}) {
    std::istringstream in(
        "fhc-fuzzy-hash-classifier-v1\nmetric 0\nthreshold 0.5\nbalanced 1\n" +
        line + "\nchannels 1 1 1\nclasses 1\nsolo\ntrain 0\n");
    FuzzyHashClassifier clf;
    EXPECT_THROW(clf.load(in), std::runtime_error) << line;
  }
}

}  // namespace
}  // namespace fhc::core
