// Model persistence: save/load roundtrip must preserve predictions exactly
// (the train-once / classify-in-prolog deployment path).
#include <gtest/gtest.h>

#include <cstddef>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include <unistd.h>

#include "core/classifier.hpp"
#include "corpus/corpus.hpp"
#include "ml/random_forest.hpp"
#include "ssdeep/gram_index.hpp"
#include "ssdeep/prepared.hpp"
#include "util/sectioned.hpp"

namespace fhc::core {
namespace {

struct TrainedModel {
  FuzzyHashClassifier clf;
  std::vector<FeatureHashes> probes;
};

TrainedModel make_model() {
  auto specs = corpus::scaled_app_classes(0.03);
  std::vector<corpus::AppClassSpec> keep;
  for (const auto& spec : specs) {
    if (spec.name == "Velvet" || spec.name == "HMMER" ||
        spec.name == "Celera Assembler" || spec.name == "BLAT") {
      keep.push_back(spec);
    }
  }
  corpus::Corpus corpus(keep, 42);
  std::vector<FeatureHashes> hashes;
  std::vector<int> labels;
  std::vector<std::string> names;
  for (int c = 0; c < corpus.class_count(); ++c) {
    names.push_back(corpus.specs()[static_cast<std::size_t>(c)].name);
  }
  for (const auto& ref : corpus.samples()) {
    hashes.push_back(extract_feature_hashes(corpus.sample_bytes(ref)));
    labels.push_back(ref.class_idx);
  }
  ClassifierConfig config;
  config.forest.n_estimators = 25;
  config.confidence_threshold = 0.2;
  TrainedModel model;
  model.clf.fit(hashes, labels, names, config);
  model.probes.assign(hashes.begin(), hashes.begin() + 8);
  return model;
}

const TrainedModel& model() {
  static const TrainedModel m = make_model();
  return m;
}

TEST(Serialization, RoundTripPreservesPredictions) {
  std::stringstream buffer;
  model().clf.save(buffer);

  FuzzyHashClassifier restored;
  restored.load(buffer);
  ASSERT_TRUE(restored.fitted());
  EXPECT_EQ(restored.class_names(), model().clf.class_names());

  for (const FeatureHashes& probe : model().probes) {
    const Prediction a = model().clf.predict(probe);
    const Prediction b = restored.predict(probe);
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.proba.size(), b.proba.size());
    for (std::size_t c = 0; c < a.proba.size(); ++c) {
      EXPECT_NEAR(a.proba[c], b.proba[c], 1e-6);
    }
  }
}

TEST(Serialization, RoundTripPreservesImportances) {
  std::stringstream buffer;
  model().clf.save(buffer);
  FuzzyHashClassifier restored;
  restored.load(buffer);
  const auto original = model().clf.channel_importance();
  const auto loaded = restored.channel_importance();
  for (std::size_t f = 0; f < original.size(); ++f) {
    EXPECT_NEAR(original[f], loaded[f], 1e-9);
  }
}

TEST(Serialization, SaveIsDeterministic) {
  std::stringstream a;
  std::stringstream b;
  model().clf.save(a);
  model().clf.save(b);
  EXPECT_EQ(a.str(), b.str());
}

TEST(Serialization, FileRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() /
                    ("fhc_model_" + std::to_string(::getpid()) + ".fhc");
  model().clf.save_file(path.string());
  const FuzzyHashClassifier restored = FuzzyHashClassifier::load_file(path.string());
  EXPECT_EQ(restored.class_names(), model().clf.class_names());
  const Prediction a = model().clf.predict(model().probes[0]);
  const Prediction b = restored.predict(model().probes[0]);
  EXPECT_EQ(a.label, b.label);
  std::filesystem::remove(path);
}

TEST(SerializationBinary, SaveLoadSaveIsByteIdentical) {
  std::ostringstream first_stream(std::ios::binary);
  model().clf.save_binary(first_stream);
  const std::string first = first_stream.str();

  // Copy into an aligned buffer (spans into a std::string are not
  // guaranteed 8-byte aligned; the vector's heap block is).
  std::vector<std::byte> bytes(first.size());
  std::memcpy(bytes.data(), first.data(), first.size());
  FuzzyHashClassifier restored;
  restored.load_binary({bytes.data(), bytes.size()}, nullptr);

  std::ostringstream second_stream(std::ios::binary);
  restored.save_binary(second_stream);
  EXPECT_EQ(first, second_stream.str());
}

TEST(SerializationBinary, PredictionsAreBitIdentical) {
  std::ostringstream stream(std::ios::binary);
  model().clf.save_binary(stream);
  const std::string image = stream.str();
  std::vector<std::byte> bytes(image.size());
  std::memcpy(bytes.data(), image.data(), image.size());
  FuzzyHashClassifier restored;
  restored.load_binary({bytes.data(), bytes.size()}, nullptr);

  ASSERT_TRUE(restored.fitted());
  EXPECT_EQ(restored.class_names(), model().clf.class_names());
  for (const FeatureHashes& probe : model().probes) {
    const Prediction a = model().clf.predict(probe);
    const Prediction b = restored.predict(probe);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.confidence, b.confidence);
    ASSERT_EQ(a.proba.size(), b.proba.size());
    for (std::size_t c = 0; c < a.proba.size(); ++c) {
      // Binary carries raw IEEE bits — exact equality, not closeness.
      EXPECT_EQ(a.proba[c], b.proba[c]);
    }
  }
  const auto imp_a = model().clf.channel_importance();
  const auto imp_b = restored.channel_importance();
  for (std::size_t f = 0; f < imp_a.size(); ++f) {
    EXPECT_EQ(imp_a[f], imp_b[f]);
  }
}

TEST(SerializationBinary, LoadFileSniffsAllThreeFormats) {
  const auto dir = std::filesystem::temp_directory_path();
  const auto text_path =
      dir / ("fhc_model_text_" + std::to_string(::getpid()) + ".fhc");
  const auto binary_path =
      dir / ("fhc_model_bin_" + std::to_string(::getpid()) + ".fhcb");
  model().clf.save_file(text_path.string());
  model().clf.save_binary_file(binary_path.string());

  // The binary file mmaps and attaches forest AND index zero-copy; the
  // text file goes through the parser — both must agree exactly.
  const FuzzyHashClassifier from_text =
      FuzzyHashClassifier::load_file(text_path.string());
  const FuzzyHashClassifier from_binary =
      FuzzyHashClassifier::load_file(binary_path.string());
  EXPECT_FALSE(from_text.index().attached());
  EXPECT_TRUE(from_binary.index().attached());
  EXPECT_EQ(from_text.class_names(), from_binary.class_names());
  for (const FeatureHashes& probe : model().probes) {
    const Prediction a = from_text.predict(probe);
    const Prediction b = from_binary.predict(probe);
    EXPECT_EQ(a.label, b.label);
    ASSERT_EQ(a.proba.size(), b.proba.size());
    for (std::size_t k = 0; k < a.proba.size(); ++k) {
      EXPECT_EQ(a.proba[k], b.proba[k]);
    }
  }
  // A retired binary version (the v1 blob, a v2 container) is recognized
  // as binary and refused with the fix, not fed to the text parser; its
  // magic is all load_file needs to see.
  for (const std::string_view retired : {"FHCMDLB1", "FHCMDLB2"}) {
    const auto retired_path = dir / ("fhc_model_retired_" +
                                     std::to_string(::getpid()) + ".fhcb");
    {
      std::ofstream out(retired_path, std::ios::trunc | std::ios::binary);
      out << retired << std::string(56, '\0');
    }
    try {
      (void)FuzzyHashClassifier::load_file(retired_path.string());
      ADD_FAILURE() << retired << " must not load";
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(retired), std::string::npos) << what;
      EXPECT_NE(what.find("retrain with `fhc_train`"), std::string::npos) << what;
    }
    std::filesystem::remove(retired_path);
  }
  std::filesystem::remove(text_path);
  std::filesystem::remove(binary_path);
}

TEST(SerializationBinary, GramIndexLiveFromBothLoaders) {
  // Both load paths must come up with a working inverted 7-gram candidate
  // index: the text parser rebuilds it from digest text, the binary
  // path attaches the serialized CSR pools zero-copy. Either way the
  // indexed fill must still agree with the all-pairs oracle bit for bit.
  const auto dir = std::filesystem::temp_directory_path();
  const auto text_path =
      dir / ("fhc_model_gram_text_" + std::to_string(::getpid()) + ".fhc");
  const auto binary_path =
      dir / ("fhc_model_gram_bin_" + std::to_string(::getpid()) + ".fhcb");
  model().clf.save_file(text_path.string());
  model().clf.save_binary_file(binary_path.string());

  for (const auto& path : {text_path, binary_path}) {
    const FuzzyHashClassifier restored =
        FuzzyHashClassifier::load_file(path.string());
    const TrainIndex& index = restored.index();
    for (int f = 0; f < kFeatureTypeCount; ++f) {
      const auto& channel = index.gram_index(static_cast<FeatureType>(f));
      EXPECT_EQ(channel.entries.size(), index.train_size()) << path;
      for (const auto& bsi : channel.by_blocksize) {
        EXPECT_GT(bsi.part1.posting_count() + bsi.part2.posting_count(), 0u)
            << path;
      }
    }
    const auto width = restored.row_width();
    for (const FeatureHashes& probe : model().probes) {
      std::vector<float> indexed(width);
      std::vector<float> reference(width);
      fill_feature_row(index, probe, restored.config().metric, -1, indexed);
      fill_feature_row_all_pairs(index, probe, restored.config().metric, -1,
                                 reference);
      EXPECT_EQ(indexed, reference) << path;
    }
  }
  std::filesystem::remove(text_path);
  std::filesystem::remove(binary_path);
}

std::vector<std::byte> aligned_image(const std::string& image) {
  std::vector<std::byte> bytes(image.size());
  if (!image.empty()) std::memcpy(bytes.data(), image.data(), image.size());
  return bytes;
}

std::string binary_image(const FuzzyHashClassifier& clf) {
  std::ostringstream stream(std::ios::binary);
  clf.save_binary(stream);
  return stream.str();
}

/// The rebuild side of attach == rebuild: a text load re-prepares every
/// digest and rebuilds the gram indexes from the digest text.
FuzzyHashClassifier rebuilt_from_text(const FuzzyHashClassifier& clf) {
  std::stringstream text;
  clf.save(text);
  FuzzyHashClassifier rebuilt;
  rebuilt.load(text);
  return rebuilt;
}

TEST(SerializationBinary, AttachPreparesNoDigestAndBuildsNoIndex) {
  // The acceptance property of the binary format: loading must not touch the
  // digest-preparation or gram-index construction paths at all — the
  // pools attach in place. A text load, by contrast, rebuilds everything.
  const std::vector<std::byte> image = aligned_image(binary_image(model().clf));

  FuzzyHashClassifier from_binary;
  const std::uint64_t prepared_before = ssdeep::prepared_digest_count();
  const std::uint64_t built_before = ssdeep::gram_index_build_count();
  from_binary.load_binary({image.data(), image.size()}, nullptr);
  EXPECT_EQ(ssdeep::prepared_digest_count(), prepared_before);
  EXPECT_EQ(ssdeep::gram_index_build_count(), built_before);
  EXPECT_TRUE(from_binary.index().attached());

  const FuzzyHashClassifier rebuilt = rebuilt_from_text(model().clf);
  EXPECT_GT(ssdeep::prepared_digest_count(), prepared_before);
  EXPECT_GT(ssdeep::gram_index_build_count(), built_before);
  EXPECT_FALSE(rebuilt.index().attached());
}

TEST(SerializationBinary, ClassifyPathBuildsNoTreeView) {
  // The forest's per-tree view serves only text save, tree() and the
  // nested oracle: a binary load plus every classify-path call must leave it
  // unbuilt, and a text save builds it exactly once.
  const std::vector<std::byte> image = aligned_image(binary_image(model().clf));
  const std::uint64_t before = ml::tree_view_materializations();
  FuzzyHashClassifier restored;
  restored.load_binary({image.data(), image.size()}, nullptr);
  ml::Matrix rows(model().probes.size(), restored.row_width());
  for (std::size_t i = 0; i < model().probes.size(); ++i) {
    (void)restored.predict(model().probes[i]);
    fill_feature_row(restored.index(), model().probes[i], restored.config().metric,
                     -1, rows.row(i));
  }
  std::vector<Prediction> predicted(rows.rows());
  restored.predict_rows(rows, predicted);
  (void)restored.predict_batch(model().probes);
  const std::vector<double> importances = restored.column_importances();
  (void)restored.channel_importance();
  EXPECT_EQ(ml::tree_view_materializations(), before);

  const std::vector<double> fitted = model().clf.column_importances();
  ASSERT_EQ(importances.size(), fitted.size());
  EXPECT_EQ(0, std::memcmp(importances.data(), fitted.data(),
                           fitted.size() * sizeof(double)));

  std::stringstream restored_text;
  restored.save(restored_text);
  restored.save(restored_text);
  EXPECT_EQ(ml::tree_view_materializations(), before + 1);
}

TEST(SerializationBinary, AttachEqualsRebuildRowsAndGateStats) {
  // Attach (binary) and rebuild (text load) must be indistinguishable to the
  // row fill: identical similarity rows AND identical gate counters — the
  // attached CSR index prunes exactly what the rebuilt one prunes.
  const std::vector<std::byte> image = aligned_image(binary_image(model().clf));
  FuzzyHashClassifier from_binary;
  from_binary.load_binary({image.data(), image.size()}, nullptr);
  const FuzzyHashClassifier rebuilt = rebuilt_from_text(model().clf);
  ASSERT_FALSE(rebuilt.index().attached());

  const auto metric = model().clf.config().metric;
  const auto width = model().clf.row_width();
  for (const FeatureHashes& probe : model().probes) {
    std::vector<float> attached_row(width);
    std::vector<float> rebuilt_row(width);
    RowFillStats attached_stats;
    RowFillStats rebuilt_stats;
    fill_feature_row(from_binary.index(), probe, metric, -1, attached_row,
                     kAllChannels, &attached_stats);
    fill_feature_row(rebuilt.index(), probe, metric, -1, rebuilt_row,
                     kAllChannels, &rebuilt_stats);
    EXPECT_EQ(attached_row, rebuilt_row);
    EXPECT_EQ(attached_stats.candidates_scored, rebuilt_stats.candidates_scored);
    EXPECT_EQ(attached_stats.index_skipped, rebuilt_stats.index_skipped);
  }
}

void expect_refused_with_the_fix(const std::vector<std::byte>& image,
                                 std::string_view retired_magic) {
  FuzzyHashClassifier restored;
  try {
    restored.load_binary({image.data(), image.size()}, nullptr);
    ADD_FAILURE() << retired_magic << " must not load";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(retired_magic), std::string::npos) << what;
    EXPECT_NE(what.find("retrain with `fhc_train`"), std::string::npos) << what;
    EXPECT_NE(what.find("text model"), std::string::npos) << what;
  }
  EXPECT_FALSE(restored.fitted());
}

TEST(SerializationBinary, RejectsRetiredV1ModelWithTheFix) {
  // The v1 blob was magic, u64 preamble length, preamble, forest image;
  // only the magic matters now.
  std::string v1("FHCMDLB1");
  v1 += std::string(8, '\0');
  std::ostringstream preamble;
  model().clf.save(preamble);
  v1 += preamble.str();
  expect_refused_with_the_fix(aligned_image(v1), "FHCMDLB1");
}

TEST(SerializationBinary, RejectsRetiredV2ModelWithTheFix) {
  // A v2 container stored the training digests' gram arrays, which no
  // loader reads any more. Here: a current image re-sealed under the v2
  // magic, so its checksums pass and only the magic can refuse it.
  const std::vector<std::byte> current = aligned_image(binary_image(model().clf));
  const auto view = util::SectionedView::attach(current, kBinaryModelMagic);
  util::SectionedWriter writer("FHCMDLB2");
  for (const util::SectionEntry& entry : view.entries()) {
    writer.add(entry.tag_view(), view.section(entry.tag_view()));
  }
  std::ostringstream out(std::ios::binary);
  writer.write_to(out);
  expect_refused_with_the_fix(aligned_image(out.str()), "FHCMDLB2");
}

TEST(SerializationBinary, RejectsV2ContainerWithRetiredForestImage) {
  // A container whose forest section carries the retired dense-leaf
  // image magic. The container is rebuilt (fresh checksums), so the
  // forest loader — not the checksum pass — must be what refuses it.
  const std::vector<std::byte> good = aligned_image(binary_image(model().clf));
  const auto view = util::SectionedView::attach(good, kBinaryModelMagic);
  std::vector<std::byte> forest;
  util::SectionedWriter writer(kBinaryModelMagic);
  for (const util::SectionEntry& entry : view.entries()) {
    const auto bytes = view.section(entry.tag_view());
    if (entry.tag_view() == "forest") {
      forest.assign(bytes.begin(), bytes.end());
      ASSERT_EQ(std::memcmp(forest.data(), "FHCFRST2", 8), 0);
      forest[7] = std::byte{'1'};
      writer.add(entry.tag_view(), forest);
    } else {
      writer.add(entry.tag_view(), bytes);
    }
  }
  std::ostringstream out(std::ios::binary);
  writer.write_to(out);
  expect_refused_with_the_fix(aligned_image(out.str()), "FHCFRST1");
}

TEST(SerializationBinary, AttachedModelSavesIdenticalText) {
  // Text save from an attached model forces the lazy raw-digest loader
  // (the pools carry no digest text in parseable form); the output must
  // still be byte-identical to the fitted model's save.
  const std::vector<std::byte> image = aligned_image(binary_image(model().clf));
  FuzzyHashClassifier restored;
  restored.load_binary({image.data(), image.size()}, nullptr);
  ASSERT_TRUE(restored.index().attached());
  std::stringstream original_text;
  std::stringstream restored_text;
  model().clf.save(original_text);
  restored.save(restored_text);
  EXPECT_EQ(original_text.str(), restored_text.str());
}

TEST(SerializationBinary, TrainIndexAttachRoundTripsAdversarialDigests) {
  // The edge digests from the gram-gate tests: an overlong part (beyond
  // kSpamsumLength, never gram-indexable), unpairable blocksize islands,
  // and empty parts. serialize -> attach must reproduce the owned index
  // bit for bit on fills, and re-serialize byte-identically.
  const auto uniform = [](std::uint32_t bs, std::string p1, std::string p2) {
    FeatureHashes h;
    h.file = h.strings = h.symbols =
        ssdeep::FuzzyDigest{bs, std::move(p1), std::move(p2)};
    h.has_symbols = true;
    return h;
  };
  std::string overlong_part;
  for (int i = 0; i < 65; ++i) {
    overlong_part.push_back(static_cast<char>('A' + (i * 11) % 26));
  }
  const std::vector<FeatureHashes> train = {
      uniform(3, "abc", "xy"),
      uniform(3, "abc", "xy"),
      uniform(6, "ABCDEFGHIJKLMNOP", "QRSTUVWXYZabcdef"),
      uniform(6, overlong_part, ""),                        // overlong part1
      uniform(96, "GGGGHHHHIIIIJJJJ", "KKKKLLLLMMMMNNNN"),  // unpairable island
      uniform(96, "OOOOPPPPQQQQRRRR", ""),                  // island, empty part2
  };
  const std::vector<int> labels = {0, 0, 1, 1, 2, 2};
  const TrainIndex owned(train, labels, {"a", "b", "c"});

  util::SectionedWriter writer("FHCTEST2");
  owned.serialize(writer);
  std::ostringstream image_stream(std::ios::binary);
  writer.write_to(image_stream);
  const std::string image = image_stream.str();
  const auto buffer = aligned_image(image);
  const auto view = util::SectionedView::attach(buffer, "FHCTEST2");

  const auto loader = [&train, &labels] { return std::make_pair(train, labels); };
  const auto attached =
      TrainIndex::attach(view, {"a", "b", "c"}, ChannelSet(), train.size(),
                         loader, nullptr);
  ASSERT_TRUE(attached->attached());

  const auto width = static_cast<std::size_t>(kFeatureTypeCount * 3);
  const auto metric = ssdeep::EditMetric::kDamerauOsa;
  const std::vector<FeatureHashes> queries = {
      train[0], train[3], train[4],
      uniform(12, "QRSTUVWXYZabcdef", "ponmlkjihgfedcba"),
      uniform(192, "KKKKLLLLMMMMNNNN", "GGGGHHHHIIIIJJJJ"),
  };
  for (const FeatureHashes& query : queries) {
    for (const int exclude : {-1, 0, 3, 5}) {
      std::vector<float> owned_row(width);
      std::vector<float> attached_row(width);
      RowFillStats owned_stats;
      RowFillStats attached_stats;
      fill_feature_row(owned, query, metric, exclude, owned_row, kAllChannels,
                       &owned_stats);
      fill_feature_row(*attached, query, metric, exclude, attached_row,
                       kAllChannels, &attached_stats);
      EXPECT_EQ(owned_row, attached_row);
      EXPECT_EQ(owned_stats.candidates_scored, attached_stats.candidates_scored);
      EXPECT_EQ(owned_stats.index_skipped, attached_stats.index_skipped);
    }
  }

  // The attached index re-serializes to the exact same container, and its
  // lazily materialized raw digests match the originals.
  util::SectionedWriter second_writer("FHCTEST2");
  attached->serialize(second_writer);
  std::ostringstream second_stream(std::ios::binary);
  second_writer.write_to(second_stream);
  EXPECT_EQ(image, second_stream.str());
  for (int c = 0; c < 3; ++c) {
    EXPECT_EQ(attached->digests(FeatureType::kFile, c),
              owned.digests(FeatureType::kFile, c));
  }
}

TEST(SerializationBinary, RejectsFlippedSectionBytes) {
  // A flipped byte inside any section payload must fail the load's
  // checksum pass — the daemon never serves from a silently corrupt map.
  const std::string image = binary_image(model().clf);
  const auto good = aligned_image(image);
  const auto view = util::SectionedView::attach(good, kBinaryModelMagic);
  for (const util::SectionEntry& entry : view.entries()) {
    if (entry.size == 0) continue;
    std::string corrupt = image;
    const auto pos = static_cast<std::size_t>(entry.offset + entry.size / 2);
    corrupt[pos] = static_cast<char>(corrupt[pos] ^ 0x01);
    const auto bytes = aligned_image(corrupt);
    FuzzyHashClassifier clf;
    EXPECT_THROW(clf.load_binary({bytes.data(), bytes.size()}, nullptr),
                 std::runtime_error)
        << "flip in section '" << entry.tag_view() << "' slipped through";
  }
}

TEST(SerializationBinary, RejectsCorruptImages) {
  std::ostringstream stream(std::ios::binary);
  model().clf.save_binary(stream);
  const std::string image = stream.str();
  const auto load_image = [](const std::string& data) {
    std::vector<std::byte> bytes(data.size());
    if (!data.empty()) std::memcpy(bytes.data(), data.data(), data.size());
    FuzzyHashClassifier clf;
    clf.load_binary({bytes.data(), bytes.size()}, nullptr);
  };
  // Bad magic.
  std::string bad = image;
  bad[0] = 'x';
  EXPECT_THROW(load_image(bad), std::runtime_error);
  // Truncation at several depths: header, preamble, forest header,
  // forest payload.
  for (const double fraction : {0.0001, 0.01, 0.5, 0.98}) {
    EXPECT_THROW(load_image(image.substr(
                     0, static_cast<std::size_t>(image.size() * fraction))),
                 std::runtime_error)
        << "fraction " << fraction;
  }
}

TEST(Serialization, RejectsForestRowWidthMismatch) {
  // A crafted model whose forest claims 5 features under a 1-class
  // preamble (row width 3). The forest passes its own internal checks
  // (leaf-only tree, 5 importances), so without the classifier-level
  // width check predict would walk rows narrower than the forest expects.
  const std::string model_text =
      "fhc-fuzzy-hash-classifier-v1\n"
      "metric 0\n"
      "threshold 0.5\n"
      "balanced 1\n"
      "channels 1 1 1\n"
      "classes 1\n"
      "OnlyClass\n"
      "train 1\n"
      "0 3:: 3:: 3::\n"
      "forest 1 5 1\n"
      "tree 1 0 1 1 5\n"
      "-1 0 -1 -1 0\n"
      "1\n"
      "0 0 0 0 0\n";
  std::stringstream in(model_text);
  FuzzyHashClassifier clf;
  EXPECT_THROW(clf.load(in), std::runtime_error);
}

TEST(Serialization, RejectsBadMagic) {
  std::stringstream buffer("not-a-model\nmetric 0\n");
  FuzzyHashClassifier clf;
  EXPECT_THROW(clf.load(buffer), std::runtime_error);
}

TEST(Serialization, RejectsTruncatedModel) {
  std::stringstream buffer;
  model().clf.save(buffer);
  const std::string full = buffer.str();
  // Cut at several depths: header, class names, digests, forest.
  for (const double fraction : {0.1, 0.4, 0.7, 0.95}) {
    std::stringstream cut(full.substr(0, static_cast<std::size_t>(
                                             full.size() * fraction)));
    FuzzyHashClassifier clf;
    EXPECT_THROW(clf.load(cut), std::runtime_error) << "fraction " << fraction;
  }
}

TEST(Serialization, RejectsUnfittedSave) {
  FuzzyHashClassifier clf;
  std::stringstream buffer;
  EXPECT_THROW(clf.save(buffer), std::logic_error);
}

TEST(Serialization, LoadedModelThresholdIsAdjustable) {
  std::stringstream buffer;
  model().clf.save(buffer);
  FuzzyHashClassifier restored;
  restored.load(buffer);
  restored.set_confidence_threshold(1.01);
  EXPECT_EQ(restored.predict(model().probes[0]).label, ml::kUnknownLabel);
}

}  // namespace
}  // namespace fhc::core
