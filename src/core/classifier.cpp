#include "core/classifier.hpp"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <istream>
#include <numeric>
#include <ostream>
#include <sstream>
#include <stdexcept>

#include "ml/class_weight.hpp"
#include "util/model_map.hpp"
#include "util/rng.hpp"
#include "util/sectioned.hpp"
#include "util/thread_pool.hpp"

namespace fhc::core {

void FuzzyHashClassifier::fit(const std::vector<FeatureHashes>& train_hashes,
                              const std::vector<int>& labels,
                              std::vector<std::string> class_names,
                              const ClassifierConfig& config) {
  if (train_hashes.empty()) throw std::invalid_argument("fit: empty training set");
  if (train_hashes.size() != labels.size()) {
    throw std::invalid_argument("fit: hashes/labels size mismatch");
  }
  calibration_ = RejectionCalibration{};
  if (config.calibrate_rejection) {
    calibration_ = run_calibration(train_hashes, labels, class_names, config);
  }
  config_ = config;
  index_ = std::make_unique<TrainIndex>(train_hashes, labels,
                                        std::move(class_names),
                                        config_.channel_set);

  // Leave-self-out featurization of the training rows: sample i's own
  // digests are excluded from the class maxima so no column degenerates to
  // the constant 100.
  std::vector<int> exclude_ids(train_hashes.size());
  std::iota(exclude_ids.begin(), exclude_ids.end(), 0);
  const ml::Matrix x = build_feature_matrix(*index_, train_hashes, config_.metric,
                                            exclude_ids, config_.channels);

  std::vector<double> weights;
  if (config_.balanced_class_weights) {
    weights = ml::balanced_sample_weights(labels);
  }
  forest_.fit(x, labels, index_->n_classes(), weights, config_.forest);
}

RejectionCalibration FuzzyHashClassifier::run_calibration(
    const std::vector<FeatureHashes>& train_hashes, const std::vector<int>& labels,
    const std::vector<std::string>& class_names, const ClassifierConfig& config) {
  // Per-class index buckets, shuffled deterministically. Every class with
  // >= 2 samples donates at least one holdout sample and keeps at least one
  // in the calibration split, so the split preserves all K classes (fit
  // requires contiguous 0..K-1 labels). Singleton classes stay in train.
  const auto k = class_names.size();
  std::vector<std::vector<std::size_t>> buckets(k);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (labels[i] < 0 || static_cast<std::size_t>(labels[i]) >= k) {
      throw std::invalid_argument("fit: label out of range");
    }
    buckets[static_cast<std::size_t>(labels[i])].push_back(i);
  }
  util::Rng rng(config.calibration_seed);
  const double fraction = std::clamp(config.calibration_holdout_fraction, 0.0, 0.5);
  std::vector<std::size_t> holdout;
  std::vector<char> held(labels.size(), 0);
  for (auto& bucket : buckets) {
    if (bucket.size() < 2) continue;
    rng.shuffle(bucket);
    const auto want = static_cast<std::size_t>(fraction *
                                               static_cast<double>(bucket.size()));
    const std::size_t h = std::clamp<std::size_t>(want, 1, bucket.size() - 1);
    for (std::size_t j = 0; j < h; ++j) {
      holdout.push_back(bucket[j]);
      held[bucket[j]] = 1;
    }
  }
  if (holdout.empty()) {
    throw std::invalid_argument(
        "fit: rejection calibration needs a class with >= 2 samples");
  }
  std::sort(holdout.begin(), holdout.end());

  std::vector<FeatureHashes> cal_hashes;
  std::vector<int> cal_labels;
  cal_hashes.reserve(labels.size() - holdout.size());
  cal_labels.reserve(labels.size() - holdout.size());
  for (std::size_t i = 0; i < labels.size(); ++i) {
    if (held[i] == 0) {
      cal_hashes.push_back(train_hashes[i]);
      cal_labels.push_back(labels[i]);
    }
  }
  ClassifierConfig cal_config = config;
  cal_config.calibrate_rejection = false;
  FuzzyHashClassifier cal;
  cal.fit(cal_hashes, cal_labels, class_names, cal_config);

  std::vector<FeatureHashes> held_hashes;
  held_hashes.reserve(holdout.size());
  for (const std::size_t i : holdout) held_hashes.push_back(train_hashes[i]);
  ml::Matrix proba;
  cal.predict_batch(held_hashes, &proba);
  std::vector<double> scores(proba.rows());
  for (std::size_t i = 0; i < proba.rows(); ++i) {
    const auto row = proba.row(i);
    scores[i] = *std::max_element(row.begin(), row.end());
  }
  std::sort(scores.begin(), scores.end());
  // Rejection is `confidence < threshold`, so picking the floor(fpr*n)-th
  // ascending score bounds the held-out rejection count by fpr*n.
  const double fpr = std::clamp(config.calibration_target_fpr, 0.0, 1.0);
  const auto idx = std::min(
      static_cast<std::size_t>(fpr * static_cast<double>(scores.size())),
      scores.size() - 1);
  RejectionCalibration out;
  out.enabled = true;
  out.threshold = scores[idx];
  out.target_fpr = fpr;
  out.holdout_count = static_cast<std::uint32_t>(scores.size());
  return out;
}

Prediction FuzzyHashClassifier::predict(const FeatureHashes& sample) const {
  if (!fitted()) throw std::logic_error("FuzzyHashClassifier: not fitted");
  std::vector<float> row(row_width());
  fill_feature_row(*index_, sample, config_.metric, /*exclude_id=*/-1, row,
                   config_.channels);
  return predict_from_row(row);
}

Prediction FuzzyHashClassifier::predict_from_row(std::span<const float> row) const {
  if (!fitted()) throw std::logic_error("FuzzyHashClassifier: not fitted");
  if (row.size() != row_width()) {
    throw std::invalid_argument("predict_from_row: bad row width");
  }
  return prediction_from_proba(forest_.predict_proba(row));
}

Prediction FuzzyHashClassifier::prediction_from_proba(std::vector<double> proba) const {
  Prediction out;
  out.proba = std::move(proba);
  const auto best = std::max_element(out.proba.begin(), out.proba.end());
  out.confidence = *best;
  const int argmax = static_cast<int>(best - out.proba.begin());
  // With calibration disabled the effective threshold IS the confidence
  // threshold, so legacy models keep their exact pre-calibration labels.
  out.label = out.confidence >= effective_reject_threshold() ? argmax
                                                             : ml::kUnknownLabel;
  out.is_unknown = out.label == ml::kUnknownLabel;
  return out;
}

void FuzzyHashClassifier::predict_rows(const ml::Matrix& rows,
                                       std::span<Prediction> out,
                                       util::ThreadPool* pool) const {
  if (!fitted()) throw std::logic_error("FuzzyHashClassifier: not fitted");
  if (rows.cols() != row_width() || out.size() != rows.rows()) {
    throw std::invalid_argument("predict_rows: bad shape");
  }
  const ml::FlatForest& plan = forest_.plan();
  const auto k = static_cast<std::size_t>(forest_.n_classes());
  const double inv = 1.0 / static_cast<double>(forest_.tree_count());
  constexpr std::size_t kBlockRows = 64;
  const auto score_block = [&](std::size_t begin, std::size_t end,
                               std::span<double> acc) {
    plan.accumulate_block(rows, begin, end, acc);
    for (std::size_t r = begin; r < end; ++r) {
      std::vector<double> proba(k);
      const double* const sums = acc.data() + (r - begin) * k;
      // Same value sequence as the serial path's in-place `p *= inv`.
      for (std::size_t c = 0; c < k; ++c) proba[c] = sums[c] * inv;
      out[r] = prediction_from_proba(std::move(proba));
    }
  };
  if (pool != nullptr && rows.rows() > kBlockRows) {
    // Blocks write disjoint out slots, so fanning them across the pool
    // keeps the result bit-identical to the serial loop below.
    const std::size_t blocks = (rows.rows() + kBlockRows - 1) / kBlockRows;
    util::parallel_for(*pool, 0, blocks, /*grain=*/1, [&](std::size_t b) {
      const std::size_t begin = b * kBlockRows;
      const std::size_t end = std::min(begin + kBlockRows, rows.rows());
      std::vector<double> acc((end - begin) * k);
      score_block(begin, end, acc);
    });
    return;
  }
  std::vector<double> acc(std::min(kBlockRows, rows.rows()) * k);
  for (std::size_t begin = 0; begin < rows.rows(); begin += kBlockRows) {
    const std::size_t end = std::min(begin + kBlockRows, rows.rows());
    score_block(begin, end, {acc.data(), (end - begin) * k});
  }
}

std::size_t FuzzyHashClassifier::row_width() const {
  if (!fitted()) throw std::logic_error("FuzzyHashClassifier: not fitted");
  return index_->n_channels() * static_cast<std::size_t>(index_->n_classes());
}

std::vector<int> FuzzyHashClassifier::predict_batch(
    const std::vector<FeatureHashes>& samples, ml::Matrix* out_proba) const {
  if (!fitted()) throw std::logic_error("FuzzyHashClassifier: not fitted");
  const ml::Matrix x =
      build_feature_matrix(*index_, samples, config_.metric, {}, config_.channels);
  ml::Matrix proba = forest_.predict_proba_matrix(x);
  std::vector<int> labels = labels_from_proba(proba, effective_reject_threshold());
  if (out_proba != nullptr) *out_proba = std::move(proba);
  return labels;
}

std::vector<int> FuzzyHashClassifier::labels_from_proba(const ml::Matrix& proba,
                                                        double threshold) const {
  std::vector<int> labels(proba.rows());
  for (std::size_t i = 0; i < proba.rows(); ++i) {
    const auto row = proba.row(i);
    const auto best = std::max_element(row.begin(), row.end());
    labels[i] = *best >= threshold
                    ? static_cast<int>(best - row.begin())
                    : ml::kUnknownLabel;
  }
  return labels;
}

std::vector<double> FuzzyHashClassifier::column_importances() const {
  return forest_.feature_importances();
}

std::vector<double> FuzzyHashClassifier::channel_importance() const {
  const std::vector<double> columns = column_importances();
  const auto k = static_cast<std::size_t>(index_->n_classes());
  std::vector<double> grouped(index_->n_channels(), 0.0);
  for (std::size_t f = 0; f < grouped.size(); ++f) {
    for (std::size_t c = 0; c < k; ++c) grouped[f] += columns[f * k + c];
  }
  double total = 0.0;
  for (const double g : grouped) total += g;
  if (total > 0.0) {
    for (double& g : grouped) g /= total;
  }
  return grouped;
}

const std::vector<std::string>& FuzzyHashClassifier::class_names() const {
  if (!fitted()) throw std::logic_error("FuzzyHashClassifier: not fitted");
  return index_->class_names();
}

namespace {
constexpr const char* kModelMagic = "fhc-fuzzy-hash-classifier-v1";

bool starts_with_magic(std::span<const std::byte> bytes, std::string_view magic) {
  return bytes.size() >= magic.size() &&
         std::memcmp(bytes.data(), magic.data(), magic.size()) == 0;
}

/// Round-trip-exact decimal for a calibrated threshold: 17 significant
/// digits guarantee parse(print(x)) == x, so save -> load -> save is
/// byte-stable even for data-derived doubles.
std::string format_exact(double value) {
  std::ostringstream out;
  out << std::setprecision(17) << value;
  return out.str();
}

}  // namespace

void FuzzyHashClassifier::save(std::ostream& out) const {
  if (!fitted()) throw std::logic_error("save: not fitted");
  out << kModelMagic << '\n';
  save_preamble(out);
  forest_.save(out);
}

void FuzzyHashClassifier::save_preamble(std::ostream& out) const {
  const ChannelSet& channels = index_->channels();
  const std::size_t n = channels.size();
  // The channelset block exists only for non-default rosters, so a
  // static-triple model's preamble is byte-identical to the pre-registry
  // format (and old parsers reject extended models at the first tag
  // instead of misreading them).
  if (!channels.is_static_triple()) {
    out << "channelset " << n << '\n';
    for (const ChannelDesc& channel : channels) {
      out << channel.name << ' ' << static_cast<int>(channel.kind) << '\n';
    }
  }
  out << "metric " << static_cast<int>(config_.metric) << '\n';
  out << "threshold " << config_.confidence_threshold << '\n';
  out << "balanced " << (config_.balanced_class_weights ? 1 : 0) << '\n';
  // Like the channelset block: written only when rejection calibration is
  // enabled, so uncalibrated models keep the legacy byte layout and old
  // parsers reject calibrated models at the tag instead of misreading them.
  if (calibration_.enabled) {
    out << "calibration " << format_exact(calibration_.threshold) << ' '
        << format_exact(calibration_.target_fpr) << ' '
        << calibration_.holdout_count << '\n';
  }
  out << "channels";
  for (std::size_t f = 0; f < n; ++f) {
    out << ' ' << (config_.channels.enabled(f) ? 1 : 0);
  }
  out << '\n';

  const int k = index_->n_classes();
  out << "classes " << k << '\n';
  // Class names may contain spaces ("Celera Assembler"): one per line.
  for (const std::string& name : index_->class_names()) out << name << '\n';

  // Reference digests, reconstructed in original training order so a
  // load/save roundtrip is byte-stable. Digest text is space-free.
  out << "train " << index_->train_size() << '\n';
  std::vector<std::string> rows(index_->train_size());
  for (int c = 0; c < k; ++c) {
    const auto& ids = index_->train_ids(c);
    for (std::size_t j = 0; j < ids.size(); ++j) {
      std::ostringstream row;
      row << c;
      for (std::size_t f = 0; f < n; ++f) {
        row << ' ' << index_->digests(f, c)[j].to_string();
      }
      rows[static_cast<std::size_t>(ids[j])] = row.str();
    }
  }
  for (const std::string& row : rows) out << row << '\n';
}

namespace {

/// The preamble's header: everything before the digest rows. The binary
/// loader parses only this eagerly — the rows stay as mapped text until
/// something actually needs raw digests (save, inspection).
struct PreambleHeader {
  ClassifierConfig config;
  RejectionCalibration calibration;  // absent line -> disabled ("never reject")
  std::vector<std::string> names;
  int k = 0;
  std::size_t n_train = 0;
};

/// How many classes/rows a model file may claim before the parser calls it
/// hostile. Real corpora are two orders of magnitude below both caps; a
/// crafted header like "classes 2000000000" must fail fast instead of
/// driving a multi-gigabyte resize (found by fuzz_model_load).
constexpr int kMaxModelClasses = 1 << 20;
constexpr std::size_t kMaxModelTrainRows = std::size_t{1} << 24;

PreambleHeader load_preamble_header(std::istream& in) {
  PreambleHeader out;
  std::string tag;
  int metric = 0;
  int balanced = 0;
  if (!(in >> tag)) {
    throw std::runtime_error("FuzzyHashClassifier::load: bad config block");
  }
  // Optional leading channelset block (extended rosters only); its
  // absence means the legacy static triple, which ClassifierConfig
  // already defaults to.
  if (tag == "channelset") {
    std::size_t n = 0;
    if (!(in >> n) || n == 0 || n > kMaxChannels) {
      throw std::runtime_error("FuzzyHashClassifier::load: bad channel count");
    }
    std::vector<ChannelDesc> descs;
    descs.reserve(n);
    for (std::size_t f = 0; f < n; ++f) {
      std::string name;
      int kind = -1;
      if (!(in >> name >> kind) || (kind != 0 && kind != 1)) {
        throw std::runtime_error("FuzzyHashClassifier::load: bad channel line");
      }
      descs.push_back(ChannelDesc{std::move(name), static_cast<ChannelKind>(kind)});
    }
    out.config.channel_set = ChannelSet(std::move(descs));
    if (!(in >> tag)) {
      throw std::runtime_error("FuzzyHashClassifier::load: bad config block");
    }
  }
  if (tag != "metric" || !(in >> metric) ||
      !(in >> tag >> out.config.confidence_threshold) || tag != "threshold" ||
      !(in >> tag >> balanced) || tag != "balanced") {
    throw std::runtime_error("FuzzyHashClassifier::load: bad config block");
  }
  out.config.metric = static_cast<ssdeep::EditMetric>(metric);
  out.config.balanced_class_weights = balanced != 0;
  if (!(in >> tag)) {
    throw std::runtime_error("FuzzyHashClassifier::load: bad channels");
  }
  // Optional calibration line (rejection-enabled models only); its absence
  // means the legacy "never reject" default.
  if (tag == "calibration") {
    double threshold = 0.0;
    double target_fpr = 0.0;
    std::uint32_t holdout = 0;
    if (!(in >> threshold >> target_fpr >> holdout) || threshold < 0.0 ||
        threshold > 1.0 || target_fpr < 0.0 || target_fpr > 1.0) {
      throw std::runtime_error("FuzzyHashClassifier::load: bad calibration");
    }
    out.calibration.enabled = true;
    out.calibration.threshold = threshold;
    out.calibration.target_fpr = target_fpr;
    out.calibration.holdout_count = holdout;
    if (!(in >> tag)) {
      throw std::runtime_error("FuzzyHashClassifier::load: bad channels");
    }
  }
  if (tag != "channels") {
    throw std::runtime_error("FuzzyHashClassifier::load: bad channels");
  }
  for (std::size_t f = 0; f < out.config.channel_set.size(); ++f) {
    int value = 0;
    if (!(in >> value)) throw std::runtime_error("load: bad channel flag");
    out.config.channels.set(f, value != 0);
  }

  if (!(in >> tag >> out.k) || tag != "classes" || out.k <= 0 ||
      out.k > kMaxModelClasses) {
    throw std::runtime_error("FuzzyHashClassifier::load: bad class count");
  }
  in.ignore();  // consume newline before getline
  out.names.resize(static_cast<std::size_t>(out.k));
  for (std::string& name : out.names) {
    if (!std::getline(in, name) || name.empty()) {
      throw std::runtime_error("FuzzyHashClassifier::load: bad class name");
    }
  }

  if (!(in >> tag >> out.n_train) || tag != "train" || out.n_train == 0 ||
      out.n_train > kMaxModelTrainRows) {
    throw std::runtime_error("FuzzyHashClassifier::load: bad train block");
  }
  return out;
}

std::pair<std::vector<FeatureHashes>, std::vector<int>> load_digest_rows(
    std::istream& in, std::size_t n_train, std::size_t n_channels) {
  std::vector<FeatureHashes> hashes(n_train);
  std::vector<int> labels(n_train);
  for (std::size_t i = 0; i < n_train; ++i) {
    if (!(in >> labels[i])) {
      throw std::runtime_error("FuzzyHashClassifier::load: truncated digests");
    }
    for (std::size_t f = 0; f < n_channels; ++f) {
      std::string text;
      if (!(in >> text)) {
        throw std::runtime_error("FuzzyHashClassifier::load: truncated digests");
      }
      const auto digest = ssdeep::parse_digest(text);
      if (!digest) {
        throw std::runtime_error("FuzzyHashClassifier::load: bad digest");
      }
      hashes[i].set_channel(f, *digest);
    }
    if (n_channels >= 3) {
      hashes[i].has_symbols = !hashes[i].symbols.part1.empty();
    }
  }
  return {std::move(hashes), std::move(labels)};
}

/// Splits the preamble text at the end of its header (the newline closing
/// the "train N" line) without parsing the digest rows: the optional
/// channelset block, 3 config lines, the optional calibration line, the
/// channels line, the "classes K" line, K name lines, and the train line.
/// Returns the header byte count.
std::size_t preamble_header_bytes(std::string_view text) {
  std::size_t pos = 0;
  int k = 0;
  const auto next_line = [&]() -> std::string_view {
    const std::size_t nl = text.find('\n', pos);
    if (nl == std::string_view::npos) {
      throw std::runtime_error("FuzzyHashClassifier::load: truncated preamble");
    }
    const std::string_view line = text.substr(pos, nl - pos);
    pos = nl + 1;
    return line;
  };
  if (text.starts_with("channelset ")) {
    std::size_t n = 0;
    {
      std::istringstream channelset_line{std::string(next_line())};
      std::string tag;
      if (!(channelset_line >> tag >> n) || n == 0 || n > kMaxChannels) {
        throw std::runtime_error("FuzzyHashClassifier::load: bad channel count");
      }
    }
    for (std::size_t i = 0; i < n; ++i) next_line();  // channel lines
  }
  for (int i = 0; i < 3; ++i) next_line();  // metric/threshold/balanced
  if (text.substr(pos).starts_with("calibration ")) next_line();
  next_line();  // channels
  {
    std::istringstream classes_line{std::string(next_line())};
    std::string tag;
    if (!(classes_line >> tag >> k) || tag != "classes" || k <= 0 ||
        k > kMaxModelClasses) {
      throw std::runtime_error("FuzzyHashClassifier::load: bad class count");
    }
  }
  for (int i = 0; i < k; ++i) next_line();  // class names
  next_line();                              // "train N"
  return pos;
}

}  // namespace

namespace {

/// predict builds rows of exactly n_channels * k floats; a forest
/// claiming any other shape would read past them (its trees are only
/// validated against its OWN n_features header).
void check_forest_shape(const ml::RandomForest& forest, int k,
                        std::size_t n_channels) {
  if (forest.n_classes() != k) {
    throw std::runtime_error("FuzzyHashClassifier::load: forest/class mismatch");
  }
  if (forest.n_features() != n_channels * static_cast<std::size_t>(k)) {
    throw std::runtime_error("FuzzyHashClassifier::load: forest/row-width mismatch");
  }
}

}  // namespace

void FuzzyHashClassifier::load(std::istream& in) {
  std::string magic;
  if (!std::getline(in, magic) || magic != kModelMagic) {
    throw std::runtime_error("FuzzyHashClassifier::load: bad magic/version");
  }
  PreambleHeader header = load_preamble_header(in);
  const std::size_t n_channels = header.config.channel_set.size();
  const auto [hashes, labels] = load_digest_rows(in, header.n_train, n_channels);
  forest_.load(in);
  check_forest_shape(forest_, header.k, n_channels);
  // Rebuilding the index re-prepares every reference digest (normalized
  // parts + gram arrays) from the raw text loaded above.
  index_ = std::make_unique<TrainIndex>(hashes, labels, std::move(header.names),
                                        header.config.channel_set);
  config_ = header.config;
  calibration_ = header.calibration;
}

void FuzzyHashClassifier::build_sections(util::SectionedWriter& writer,
                                         std::string& preamble,
                                         std::string& forest) const {
  std::ostringstream preamble_stream;
  save_preamble(preamble_stream);
  preamble = preamble_stream.str();
  std::ostringstream forest_stream;
  forest_.save_binary(forest_stream);
  forest = forest_stream.str();
  writer.add("preamble", std::as_bytes(std::span<const char>(preamble)));
  index_->serialize(writer);
  // The forest image carries its own 64-byte FHCFRST2 header, so inside a
  // 64-byte-aligned section the SoA payload keeps its 8-byte alignment.
  writer.add("forest", std::as_bytes(std::span<const char>(forest)));
}

void FuzzyHashClassifier::save_binary(std::ostream& out) const {
  if (!fitted()) throw std::logic_error("save: not fitted");
  util::SectionedWriter writer(kBinaryModelMagic);
  std::string preamble;
  std::string forest;
  build_sections(writer, preamble, forest);
  writer.write_to(out);
  if (!out) throw std::runtime_error("save_binary: write failed");
}

std::string retired_binary_model_message(std::span<const std::byte> bytes) {
  std::string magic;
  for (std::size_t i = 0; i < kBinaryModelMagic.size() && i < bytes.size(); ++i) {
    const auto c = static_cast<char>(bytes[i]);
    magic.push_back(c >= ' ' && c <= '~' ? c : '?');
  }
  return "binary model " + magic +
         " is no longer supported; retrain with `fhc_train`, or load the text "
         "model";
}

bool FuzzyHashClassifier::is_binary_model(std::span<const std::byte> bytes) {
  return starts_with_magic(bytes, kBinaryModelMagicFamily);
}

void FuzzyHashClassifier::load_binary(std::span<const std::byte> bytes,
                                      std::shared_ptr<const void> keepalive) {
  if (is_binary_model(bytes) && !starts_with_magic(bytes, kBinaryModelMagic)) {
    throw std::runtime_error("FuzzyHashClassifier::load_binary: " +
                             retired_binary_model_message(bytes));
  }
  const util::SectionedView container =
      util::SectionedView::attach(bytes, kBinaryModelMagic);
  // One streaming pass over the payload bytes — the only O(model-size)
  // work on this path, and still orders of magnitude cheaper than
  // re-preparing digests or rebuilding CSR indexes.
  container.verify_checksums();

  const std::span<const std::byte> preamble_bytes = container.section("preamble");
  const std::string_view preamble_text(
      reinterpret_cast<const char*>(preamble_bytes.data()), preamble_bytes.size());
  const std::size_t header_bytes = preamble_header_bytes(preamble_text);
  std::istringstream header_stream{
      std::string(preamble_text.substr(0, header_bytes))};
  PreambleHeader header = load_preamble_header(header_stream);

  forest_.load_binary(container.section("forest"), keepalive);
  check_forest_shape(forest_, header.k, header.config.channel_set.size());

  // The digest rows stay as mapped text; the loader below parses them
  // only if something asks for raw digests (save, inspection). The
  // keepalive copy in the lambda pins the mapping for the view's sake.
  const std::string_view rows_text = preamble_text.substr(header_bytes);
  const std::size_t n_train = header.n_train;
  const std::size_t n_channels = header.config.channel_set.size();
  TrainIndex::RawDigestLoader raw_loader = [rows_text, n_train, n_channels,
                                            keepalive]() {
    std::istringstream rows_stream{std::string(rows_text)};
    return load_digest_rows(rows_stream, n_train, n_channels);
  };
  index_ = TrainIndex::attach(container, std::move(header.names),
                              header.config.channel_set, header.n_train,
                              std::move(raw_loader), keepalive);
  config_ = header.config;
  calibration_ = header.calibration;
}

void FuzzyHashClassifier::save_file(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) throw std::runtime_error("save_file: cannot open " + path);
  save(out);
  if (!out) throw std::runtime_error("save_file: write failed for " + path);
}

void FuzzyHashClassifier::save_binary_file(const std::string& path) const {
  // Binary models get mmap'd by resident daemons; truncating the live
  // inode in place would SIGBUS any process still mapping it, and a crash
  // mid-rewrite must never leave a torn model at `path`. write_file
  // handles both: sibling temp file, fsync, rename, directory fsync.
  if (!fitted()) throw std::logic_error("save: not fitted");
  util::SectionedWriter writer(kBinaryModelMagic);
  std::string preamble;
  std::string forest;
  build_sections(writer, preamble, forest);
  writer.write_file(path);
}

FuzzyHashClassifier FuzzyHashClassifier::load_file(const std::string& path) {
  // Sniff the first bytes to pick the format: binary models are mmap'd
  // and attached in place; text models stream through the parser (no
  // in-memory copy of the file).
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("load_file: cannot open " + path);
  std::array<std::byte, 8> head{};
  in.read(reinterpret_cast<char*>(head.data()), head.size());
  FuzzyHashClassifier clf;
  if (in.gcount() == static_cast<std::streamsize>(head.size()) &&
      is_binary_model(head)) {
    in.close();
    auto map = std::make_shared<util::ModelMap>(path);
    clf.load_binary(map->bytes(), map);
    return clf;
  }
  in.clear();  // short files leave eof/fail set; rewind for the text parser
  in.seekg(0);
  clf.load(in);
  return clf;
}

}  // namespace fhc::core
