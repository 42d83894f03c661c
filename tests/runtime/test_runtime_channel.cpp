// The runtime channel through the whole stack: a four-channel model must
// round-trip text -> v3 binary -> zero-copy attach with bit-identical
// rows and predictions, legacy three-channel models must keep loading
// into the synthesized static triple, and the batch service path must
// match serial predict bit for bit.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "core/feature_matrix.hpp"
#include "core/features.hpp"
#include "runtime/fingerprint.hpp"
#include "runtime/synthetic.hpp"
#include "service/service.hpp"
#include "support/synthetic_hashes.hpp"
#include "util/sectioned.hpp"

namespace fhc::runtime {
namespace {

using core::ChannelDesc;
using core::ChannelKind;
using core::ChannelMask;
using core::ChannelSet;
using core::FeatureHashes;
using core::FuzzyHashClassifier;
using core::Prediction;
using core::TrainIndex;

TEST(ChannelSet, DefaultIsTheStaticTriple) {
  const ChannelSet channels;
  ASSERT_EQ(channels.size(), 3u);
  EXPECT_TRUE(channels.is_static_triple());
  EXPECT_EQ(channels[0].name, "ssdeep-file");
  EXPECT_EQ(channels[1].name, "ssdeep-strings");
  EXPECT_EQ(channels[2].name, "ssdeep-symbols");
  for (const ChannelDesc& channel : channels) {
    EXPECT_EQ(channel.kind, ChannelKind::kStatic);
  }
}

TEST(ChannelSet, ValidatesItsRoster) {
  EXPECT_THROW(ChannelSet(std::vector<ChannelDesc>{}), std::invalid_argument);
  EXPECT_THROW(ChannelSet({{"", ChannelKind::kStatic}}), std::invalid_argument);
  EXPECT_THROW(ChannelSet({{"has space", ChannelKind::kStatic}}),
               std::invalid_argument);
  EXPECT_THROW(ChannelSet({{"dup", ChannelKind::kStatic},
                           {"dup", ChannelKind::kRuntime}}),
               std::invalid_argument);
  std::vector<ChannelDesc> too_many;
  for (std::size_t i = 0; i <= core::kMaxChannels; ++i) {
    too_many.push_back({"ch" + std::to_string(i), ChannelKind::kStatic});
  }
  EXPECT_THROW(ChannelSet(std::move(too_many)), std::invalid_argument);
}

TEST(ChannelSet, RoundTripsThroughText) {
  const ChannelSet channels = runtime_channel_set();
  const ChannelSet reparsed =
      core::channel_set_from_text(core::channel_set_to_text(channels));
  EXPECT_EQ(channels, reparsed);
  EXPECT_EQ(ChannelSet(), core::channel_set_from_text(
                              core::channel_set_to_text(ChannelSet())));
}

/// Four-channel corpus: the shared synthetic static triple plus a
/// per-class synthetic workload trace (run seed varies per sample).
struct RuntimeCorpus {
  std::vector<FeatureHashes> train;
  std::vector<int> labels;
  std::vector<FeatureHashes> queries;
};

RuntimeCorpus make_runtime_corpus() {
  testsupport::SyntheticHashesParams params;
  params.classes = 3;
  params.per_class = 8;
  params.queries = 9;
  testsupport::SyntheticHashes base = testsupport::make_synthetic_hashes(params);
  RuntimeCorpus out;
  out.train = std::move(base.train);
  out.labels = std::move(base.labels);
  out.queries = std::move(base.queries);
  for (std::size_t i = 0; i < out.train.size(); ++i) {
    const int cls = out.labels[i];
    attach_trace(out.train[i],
                 synthesize_trace(hpc_trace_spec(cls), 100 + i));
  }
  for (std::size_t q = 0; q < out.queries.size(); ++q) {
    const int cls = static_cast<int>(q) % params.classes;
    attach_trace(out.queries[q],
                 synthesize_trace(hpc_trace_spec(cls), 900 + q));
  }
  return out;
}

struct FittedModel {
  FuzzyHashClassifier clf;
  RuntimeCorpus corpus;
};

const FittedModel& model() {
  static const FittedModel fitted = [] {
    FittedModel out;
    out.corpus = make_runtime_corpus();
    core::ClassifierConfig config;
    config.forest.n_estimators = 20;
    config.confidence_threshold = 0.2;
    config.channel_set = runtime_channel_set();
    std::vector<std::string> names{"alpha", "beta", "gamma"};
    out.clf.fit(out.corpus.train, out.corpus.labels, names, config);
    return out;
  }();
  return fitted;
}

void expect_same_predictions(const FuzzyHashClassifier& a,
                             const FuzzyHashClassifier& b) {
  for (const FeatureHashes& query : model().corpus.queries) {
    const Prediction pa = a.predict(query);
    const Prediction pb = b.predict(query);
    EXPECT_EQ(pa.label, pb.label);
    ASSERT_EQ(pa.proba.size(), pb.proba.size());
    for (std::size_t c = 0; c < pa.proba.size(); ++c) {
      EXPECT_EQ(pa.proba[c], pb.proba[c]);  // bit-identical, not NEAR
    }
  }
}

TEST(RuntimeChannel, FitCarriesTheFourChannelSet) {
  const TrainIndex& index = model().clf.index();
  EXPECT_EQ(index.n_channels(), 4u);
  EXPECT_EQ(index.channels(), runtime_channel_set());
  EXPECT_EQ(model().clf.row_width(), 4u * 3u);
  EXPECT_EQ(model().clf.channel_importance().size(), 4u);
}

TEST(RuntimeChannel, RuntimeChannelCarriesSignal) {
  // With per-class workloads the runtime channel must matter: a non-zero
  // share of forest splits land on its columns.
  EXPECT_GT(model().clf.channel_importance()[3], 0.0);
}

TEST(RuntimeChannel, IndexedFillMatchesAllPairsOracle) {
  const TrainIndex& index = model().clf.index();
  const auto metric = model().clf.config().metric;
  std::vector<float> indexed(model().clf.row_width());
  std::vector<float> oracle(model().clf.row_width());
  for (const FeatureHashes& query : model().corpus.queries) {
    core::fill_feature_row(index, query, metric, -1, indexed);
    core::fill_feature_row_all_pairs(index, query, metric, -1, oracle);
    EXPECT_EQ(indexed, oracle);
  }
}

TEST(RuntimeChannel, TextRoundTripIsExactAndRestable) {
  std::stringstream buffer;
  model().clf.save(buffer);
  const std::string first = buffer.str();
  EXPECT_NE(first.find("channelset 4"), std::string::npos);
  EXPECT_NE(first.find("ssdeep-runtime 1"), std::string::npos);

  FuzzyHashClassifier restored;
  restored.load(buffer);
  EXPECT_EQ(restored.index().channels(), runtime_channel_set());
  expect_same_predictions(model().clf, restored);

  std::stringstream again;
  restored.save(again);
  EXPECT_EQ(again.str(), first);
}

TEST(RuntimeChannel, BinaryV3AttachIsBitIdentical) {
  std::ostringstream stream(std::ios::binary);
  model().clf.save_binary(stream);
  const std::string bytes = stream.str();

  std::vector<std::byte> aligned(bytes.size());
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  FuzzyHashClassifier attached;
  attached.load_binary(std::span<const std::byte>(aligned), nullptr);

  EXPECT_EQ(attached.index().channels(), runtime_channel_set());
  expect_same_predictions(model().clf, attached);

  // attach == rebuild: the attached model re-serializes byte-identically.
  std::ostringstream second(std::ios::binary);
  attached.save_binary(second);
  EXPECT_EQ(second.str(), bytes);

  // Rows, not just predictions: same feature row from both indexes.
  std::vector<float> a(model().clf.row_width());
  std::vector<float> b(model().clf.row_width());
  const auto metric = model().clf.config().metric;
  for (const FeatureHashes& query : model().corpus.queries) {
    core::fill_feature_row(model().clf.index(), query, metric, -1, a);
    core::fill_feature_row(attached.index(), query, metric, -1, b);
    EXPECT_EQ(a, b);
  }
}

TEST(RuntimeChannel, V3ContainerCarriesTheChannelRoster) {
  std::ostringstream stream(std::ios::binary);
  model().clf.save_binary(stream);
  const std::string bytes = stream.str();
  std::vector<std::byte> aligned(bytes.size());
  std::memcpy(aligned.data(), bytes.data(), bytes.size());

  const auto view = util::SectionedView::attach(
      std::span<const std::byte>(aligned), core::kBinaryModelMagic);
  const auto roster = view.section(core::model_section::kChannels);
  const ChannelSet parsed = core::channel_set_from_text(std::string_view(
      reinterpret_cast<const char*>(roster.data()), roster.size()));
  EXPECT_EQ(parsed, runtime_channel_set());
  const auto meta = TrainIndex::parse_meta(view.section(core::model_section::kMeta));
  EXPECT_EQ(meta.version, 2u);
  EXPECT_EQ(meta.entry_counts.size(), 4u);
}

TEST(RuntimeChannel, QueriesWithoutATraceScoreZeroOnTheRuntimeChannel) {
  // A trace-less query (plain static triple) against the four-channel
  // model: runtime columns must be exactly 0, like a stripped binary on
  // the symbols channel, in both fill paths.
  const TrainIndex& index = model().clf.index();
  const auto metric = model().clf.config().metric;
  FeatureHashes bare = model().corpus.queries[0];
  bare.extra.clear();
  std::vector<float> indexed(model().clf.row_width());
  std::vector<float> oracle(model().clf.row_width());
  core::fill_feature_row(index, bare, metric, -1, indexed);
  core::fill_feature_row_all_pairs(index, bare, metric, -1, oracle);
  EXPECT_EQ(indexed, oracle);
  for (int c = 0; c < index.n_classes(); ++c) {
    EXPECT_EQ(indexed[3u * static_cast<std::size_t>(index.n_classes()) +
                      static_cast<std::size_t>(c)],
              0.0f);
  }
}

TEST(RuntimeChannel, MaskAblationPinsChannels) {
  // Static-only ablation of the four-channel model: runtime columns are
  // masked to zero while static columns are untouched.
  const TrainIndex& index = model().clf.index();
  const auto metric = model().clf.config().metric;
  const ChannelMask static_only{true, true, true};
  const std::size_t k = static_cast<std::size_t>(index.n_classes());
  std::vector<float> all(model().clf.row_width());
  std::vector<float> masked(model().clf.row_width());
  core::fill_feature_row(index, model().corpus.queries[0], metric, -1, all);
  core::fill_feature_row(index, model().corpus.queries[0], metric, -1, masked,
                         static_only);
  for (std::size_t f = 0; f < 4; ++f) {
    for (std::size_t c = 0; c < k; ++c) {
      EXPECT_EQ(masked[f * k + c], f < 3 ? all[f * k + c] : 0.0f);
    }
  }
}

TEST(RuntimeChannel, ServiceBatchMatchesSerialPredict) {
  // The classifier is move-only; serve a binary-round-tripped clone (the
  // attach path a daemon would take), which the attach test proved
  // bit-identical to the original.
  std::ostringstream stream(std::ios::binary);
  model().clf.save_binary(stream);
  const std::string bytes = stream.str();
  std::vector<std::byte> aligned(bytes.size());
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  FuzzyHashClassifier copy;
  copy.load_binary(std::span<const std::byte>(aligned), nullptr);
  service::ClassificationService svc(std::move(copy));
  const std::vector<Prediction> batched =
      svc.classify_batch(model().corpus.queries);
  ASSERT_EQ(batched.size(), model().corpus.queries.size());
  for (std::size_t i = 0; i < batched.size(); ++i) {
    const Prediction serial = model().clf.predict(model().corpus.queries[i]);
    EXPECT_EQ(batched[i].label, serial.label);
    ASSERT_EQ(batched[i].proba.size(), serial.proba.size());
    for (std::size_t c = 0; c < serial.proba.size(); ++c) {
      EXPECT_EQ(batched[i].proba[c], serial.proba[c]);
    }
  }
}

TEST(LegacyModels, StaticTripleTextHasNoChannelsetBlockAndReloads) {
  testsupport::SyntheticHashesParams params;
  params.classes = 2;
  params.per_class = 6;
  params.queries = 4;
  const testsupport::SyntheticHashes data =
      testsupport::make_synthetic_hashes(params);
  core::ClassifierConfig config;
  config.forest.n_estimators = 10;
  FuzzyHashClassifier clf;
  clf.fit(data.train, data.labels, {"a", "b"}, config);

  std::stringstream text;
  clf.save(text);
  // The legacy preamble shape: no channelset block, the mask line still
  // carries exactly three flags.
  EXPECT_EQ(text.str().find("channelset"), std::string::npos);
  EXPECT_NE(text.str().find("channels 1 1 1\n"), std::string::npos);

  FuzzyHashClassifier restored;
  restored.load(text);
  EXPECT_TRUE(restored.index().channels().is_static_triple());

  std::ostringstream binary(std::ios::binary);
  clf.save_binary(binary);
  const std::string bytes = binary.str();
  std::vector<std::byte> aligned(bytes.size());
  std::memcpy(aligned.data(), bytes.data(), bytes.size());
  // Static triple serializes the legacy version-1 counts header and no
  // roster section at all.
  const auto view = util::SectionedView::attach(
      std::span<const std::byte>(aligned), core::kBinaryModelMagic);
  std::span<const std::byte> roster;
  EXPECT_FALSE(view.find(core::model_section::kChannels, roster));
  const auto meta = TrainIndex::parse_meta(view.section(core::model_section::kMeta));
  EXPECT_EQ(meta.version, 1u);

  FuzzyHashClassifier attached;
  attached.load_binary(std::span<const std::byte>(aligned), nullptr);
  EXPECT_TRUE(attached.index().channels().is_static_triple());
  for (const FeatureHashes& query : data.queries) {
    EXPECT_EQ(attached.predict(query).label, clf.predict(query).label);
  }
}

TEST(ParseMeta, RejectsMalformedHeaders) {
  EXPECT_THROW(TrainIndex::parse_meta({}), std::runtime_error);
  std::vector<std::byte> garbage(48);
  std::uint32_t version = 7;
  std::memcpy(garbage.data(), &version, sizeof version);
  EXPECT_THROW(TrainIndex::parse_meta(garbage), std::runtime_error);
  // Version 2 with a channel count the payload size contradicts.
  std::vector<std::byte> v2(24 + 8 * 4);
  version = 2;
  std::memcpy(v2.data(), &version, sizeof version);
  std::uint32_t n_channels = 5;
  std::memcpy(v2.data() + 16, &n_channels, sizeof n_channels);
  EXPECT_THROW(TrainIndex::parse_meta(v2), std::runtime_error);
}

}  // namespace
}  // namespace fhc::runtime
