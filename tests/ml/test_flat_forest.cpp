// FlatForest: the compiled SoA inference plan must be bit-identical to
// the nested per-tree walk on fitted, text-loaded and hand-built forests
// (leaf-only and deep trees, signed-zero and cancelling leaf values), the
// sparse leaf pool must reject every malformed CSR image, the binary
// forest image must round-trip byte-identically, and a binary load must
// build the per-tree view only when something needs it.
#include "ml/flat_forest.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstring>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "ml/random_forest.hpp"
#include "util/rng.hpp"

namespace fhc::ml {
namespace {

struct Dataset {
  Matrix x;
  std::vector<int> y;
  int classes;
};

/// Random dataset with mildly class-correlated features so trees grow
/// real structure (plus noise so they grow deep).
Dataset make_dataset(std::size_t n, std::size_t features, int classes,
                     fhc::util::Rng& rng) {
  Dataset data{Matrix(n, features), std::vector<int>(n), classes};
  for (std::size_t i = 0; i < n; ++i) {
    const int cls =
        static_cast<int>(rng.next_below(static_cast<std::uint64_t>(classes)));
    data.y[i] = cls;
    for (std::size_t f = 0; f < features; ++f) {
      const double shift =
          f % static_cast<std::size_t>(classes) == static_cast<std::size_t>(cls)
              ? 2.0
              : 0.0;
      data.x.at(i, f) = static_cast<float>(shift + rng.gaussian());
    }
  }
  return data;
}

/// Every probe row must produce EXACTLY the same doubles through the plan
/// as through the nested reference walk, and the float matrix path must
/// match the per-row casts exactly.
void expect_plan_matches_nested(const RandomForest& forest, const Matrix& probes) {
  ASSERT_TRUE(forest.plan().compiled());
  const Matrix matrix_proba = forest.predict_proba_matrix(probes);
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    const std::vector<double> plan = forest.predict_proba(probes.row(i));
    const std::vector<double> nested = forest.predict_proba_nested(probes.row(i));
    ASSERT_EQ(plan.size(), nested.size());
    for (std::size_t c = 0; c < plan.size(); ++c) {
      // Bit-identity, not closeness: same float loads, same double adds,
      // same multiply by 1/n_trees, in the same order.
      EXPECT_EQ(plan[c], nested[c]) << "row " << i << " class " << c;
      EXPECT_EQ(matrix_proba.at(i, c), static_cast<float>(nested[c]))
          << "row " << i << " class " << c;
    }
  }
}

TEST(FlatForest, BitIdenticalToNestedOverRandomForests) {
  fhc::util::Rng rng(11);
  int case_index = 0;
  for (const int max_depth : {0, 1, 3}) {
    for (const int trees : {1, 9}) {
      for (const int classes : {2, 5}) {
        SCOPED_TRACE("case " + std::to_string(case_index++) + " depth " +
                     std::to_string(max_depth) + " trees " +
                     std::to_string(trees) + " classes " +
                     std::to_string(classes));
        const Dataset data = make_dataset(120, 7, classes, rng);
        ForestParams params;
        params.n_estimators = trees;
        params.tree.max_depth = max_depth;
        params.seed = static_cast<std::uint64_t>(17 + case_index);
        params.bootstrap = case_index % 2 == 0;
        RandomForest forest;
        forest.fit(data.x, data.y, classes, {}, params);
        expect_plan_matches_nested(forest, data.x);
      }
    }
  }
}

TEST(FlatForest, BitIdenticalOnLeafOnlyTrees) {
  // Single-label data collapses every tree to one leaf — the shallowest
  // shape the walk must handle (root IS the leaf).
  fhc::util::Rng rng(12);
  Dataset data = make_dataset(40, 3, 2, rng);
  std::fill(data.y.begin(), data.y.end(), 1);
  ForestParams params;
  params.n_estimators = 5;
  RandomForest forest;
  forest.fit(data.x, data.y, 2, {}, params);
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    EXPECT_EQ(forest.tree(t).node_count(), 1u);
  }
  expect_plan_matches_nested(forest, data.x);
}

TEST(FlatForest, BitIdenticalOnDeepTrees) {
  // Pure-noise labels force deep, unbalanced trees.
  fhc::util::Rng rng(13);
  Dataset data = make_dataset(300, 4, 3, rng);
  for (int& label : data.y) {
    label = static_cast<int>(rng.next_below(3));
  }
  ForestParams params;
  params.n_estimators = 7;
  RandomForest forest;
  forest.fit(data.x, data.y, 3, {}, params);
  int max_depth = 0;
  for (std::size_t t = 0; t < forest.tree_count(); ++t) {
    max_depth = std::max(max_depth, forest.tree(t).depth());
  }
  EXPECT_GE(max_depth, 8);
  expect_plan_matches_nested(forest, data.x);
}

TEST(FlatForest, BitIdenticalAfterTextRoundTrip) {
  fhc::util::Rng rng(14);
  const Dataset data = make_dataset(150, 6, 4, rng);
  ForestParams params;
  params.n_estimators = 11;
  RandomForest forest;
  forest.fit(data.x, data.y, 4, {}, params);

  std::stringstream text;
  forest.save(text);
  RandomForest loaded;
  loaded.load(text);
  expect_plan_matches_nested(loaded, data.x);
  for (std::size_t i = 0; i < data.x.rows(); i += 7) {
    const auto original = forest.predict_proba(data.x.row(i));
    const auto restored = loaded.predict_proba(data.x.row(i));
    for (std::size_t c = 0; c < original.size(); ++c) {
      EXPECT_EQ(original[c], restored[c]);
    }
  }
}

TEST(FlatForest, AccumulateBlockMatchesChunkedCalls) {
  fhc::util::Rng rng(15);
  const Dataset data = make_dataset(130, 5, 3, rng);
  ForestParams params;
  params.n_estimators = 6;
  RandomForest forest;
  forest.fit(data.x, data.y, 3, {}, params);

  // predict_proba_block over an arbitrary sub-range must land in the same
  // out rows as the full-matrix pass (chunk boundaries included: 130 rows
  // crosses the 64-row internal chunk twice).
  Matrix full(data.x.rows(), 3);
  forest.plan().predict_proba_block(data.x, full);
  Matrix partial(data.x.rows(), 3, -1.0f);
  forest.plan().predict_proba_block(data.x, 10, 97, partial);
  for (std::size_t i = 10; i < 97; ++i) {
    for (std::size_t c = 0; c < 3; ++c) {
      EXPECT_EQ(partial.at(i, c), full.at(i, c));
    }
  }
  // Rows outside the range are untouched.
  EXPECT_EQ(partial.at(9, 0), -1.0f);
  EXPECT_EQ(partial.at(97, 0), -1.0f);
}

RandomForest small_fitted_forest(int trees = 9, int classes = 4) {
  fhc::util::Rng rng(16);
  const Dataset data = make_dataset(90, 5, classes, rng);
  ForestParams params;
  params.n_estimators = trees;
  RandomForest forest;
  forest.fit(data.x, data.y, classes, {}, params);
  return forest;
}

std::string binary_image(const RandomForest& forest) {
  std::ostringstream out(std::ios::binary);
  forest.save_binary(out);
  return out.str();
}

void load_from_string(RandomForest& forest, const std::string& image) {
  std::istringstream in(image, std::ios::binary);
  forest.load_binary(in);
}

TEST(FlatForestBinary, SaveLoadSaveIsByteIdentical) {
  const RandomForest forest = small_fitted_forest();
  const std::string first = binary_image(forest);
  RandomForest loaded;
  load_from_string(loaded, first);
  const std::string second = binary_image(loaded);
  EXPECT_EQ(first, second);
  // And deterministic across repeated saves.
  EXPECT_EQ(first, binary_image(forest));
}

TEST(FlatForestBinary, LoadedForestPredictsIdentically) {
  fhc::util::Rng rng(17);
  const Dataset data = make_dataset(90, 5, 4, rng);
  ForestParams params;
  params.n_estimators = 9;
  RandomForest forest;
  forest.fit(data.x, data.y, 4, {}, params);

  RandomForest loaded;
  load_from_string(loaded, binary_image(forest));
  EXPECT_EQ(loaded.n_classes(), forest.n_classes());
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  expect_plan_matches_nested(loaded, data.x);
  for (std::size_t i = 0; i < data.x.rows(); i += 5) {
    const auto original = forest.predict_proba(data.x.row(i));
    const auto restored = loaded.predict_proba(data.x.row(i));
    for (std::size_t c = 0; c < original.size(); ++c) {
      EXPECT_EQ(original[c], restored[c]);
    }
  }
  const auto imp_original = forest.feature_importances();
  const auto imp_restored = loaded.feature_importances();
  ASSERT_EQ(imp_original.size(), imp_restored.size());
  for (std::size_t f = 0; f < imp_original.size(); ++f) {
    EXPECT_EQ(imp_original[f], imp_restored[f]);
  }
}

TEST(FlatForestBinary, BinaryLoadThenTextSaveMatchesOriginalTextSave) {
  // The binary loader reconstructs the full per-tree view, so text
  // serialization survives a pass through the binary format byte for
  // byte.
  const RandomForest forest = small_fitted_forest();
  RandomForest loaded;
  load_from_string(loaded, binary_image(forest));
  std::ostringstream original_text;
  std::ostringstream restored_text;
  forest.save(original_text);
  loaded.save(restored_text);
  EXPECT_EQ(original_text.str(), restored_text.str());
}

TEST(FlatForestBinary, RejectsBadMagicAndVersion) {
  const RandomForest forest = small_fitted_forest(3, 2);
  std::string image = binary_image(forest);
  {
    std::string bad = image;
    bad[0] = 'X';
    RandomForest loaded;
    EXPECT_THROW(load_from_string(loaded, bad), std::runtime_error);
  }
  {
    std::string bad = image;
    bad[8] = 99;  // version field
    RandomForest loaded;
    EXPECT_THROW(load_from_string(loaded, bad), std::runtime_error);
  }
}

TEST(FlatForestBinary, RejectsTruncation) {
  const RandomForest forest = small_fitted_forest(3, 2);
  const std::string image = binary_image(forest);
  for (const double fraction : {0.05, 0.3, 0.7, 0.99}) {
    RandomForest loaded;
    EXPECT_THROW(
        load_from_string(loaded, image.substr(0, static_cast<std::size_t>(
                                                     image.size() * fraction))),
        std::runtime_error)
        << "fraction " << fraction;
  }
}

TEST(FlatForestBinary, RejectsBackwardChildLink) {
  // Craft a back-link in the child[] section: with T trees the sections
  // before child[] occupy 4*(3T+2) + 8N bytes; the root's left-child slot
  // is the first child entry. Pointing it at node 0 (itself) must be
  // rejected — forward links are what make every walk terminate.
  const RandomForest forest = small_fitted_forest(1, 2);
  std::string image = binary_image(forest);
  std::uint32_t total_nodes = 0;
  std::memcpy(&total_nodes, image.data() + 24, sizeof total_nodes);
  ASSERT_GT(total_nodes, 1u);  // needs an interior root to corrupt
  const std::size_t header = 64;
  const std::size_t child_offset = header + 4 * (3 * 1 + 2) + 8 * total_nodes;
  const std::int32_t self_link = 0;
  std::memcpy(image.data() + child_offset, &self_link, sizeof self_link);
  RandomForest loaded;
  EXPECT_THROW(load_from_string(loaded, image), std::runtime_error);
}

TEST(FlatForestBinary, RejectsUnfittedSave) {
  RandomForest forest;
  std::ostringstream out;
  EXPECT_THROW(forest.save_binary(out), std::logic_error);
}

// --- hand-built forests: signed zeros, cancellation, CSR validation ------

/// A depth-1 tree over 2 features and 3 classes: root splits feature
/// `feature` at `threshold`, leaves hold exactly the given floats.
DecisionTree stump(int feature, float threshold, std::vector<float> left,
                   std::vector<float> right) {
  std::vector<DecisionTree::Node> nodes(3);
  nodes[0].feature = feature;
  nodes[0].threshold = threshold;
  nodes[0].left = 1;
  nodes[0].right = 2;
  nodes[1].proba_offset = 0;
  nodes[2].proba_offset = 3;
  std::vector<float> pool = std::move(left);
  pool.insert(pool.end(), right.begin(), right.end());
  DecisionTree tree;
  tree.restore(std::move(nodes), std::move(pool), {0.25, 0.75}, 3, 1);
  return tree;
}

/// Two stumps whose leaves hold +0.0f, -0.0f, and values that cancel to
/// zero across trees (0.25 - 0.25, 0.5 - 0.5, -0.5 + 0.5). Installed
/// through the text loader, which keeps every float bit (-0.0f prints as
/// "-0").
RandomForest signed_zero_forest() {
  std::ostringstream text;
  text << "forest 3 2 2\n";
  stump(0, 0.5f, {-0.0f, 0.25f, +0.0f}, {0.5f, -0.0f, -0.5f}).save(text);
  stump(1, 0.0f, {-0.5f, -0.25f, 0.5f}, {+0.0f, -0.0f, -0.0f}).save(text);
  std::istringstream in(text.str());
  RandomForest forest;
  forest.load(in);
  return forest;
}

Matrix signed_zero_probes() {
  Matrix probes(4, 2);
  const float rows[4][2] = {{0.0f, -1.0f}, {1.0f, -1.0f}, {0.0f, 1.0f}, {1.0f, 1.0f}};
  for (std::size_t i = 0; i < 4; ++i) {
    probes.at(i, 0) = rows[i][0];
    probes.at(i, 1) = rows[i][1];
  }
  return probes;
}

TEST(FlatForestSparse, SignedZerosAndCancellationStayBitIdentical) {
  const RandomForest forest = signed_zero_forest();
  // Only the entries that compare unequal to 0.0f are stored: 1 + 2 + 3 + 0.
  EXPECT_EQ(forest.plan().shape().leaf_count, 4u);
  EXPECT_EQ(forest.plan().shape().leaf_entries, 6u);
  const Matrix probes = signed_zero_probes();
  const Matrix matrix_proba = forest.predict_proba_matrix(probes);
  int zero_outputs = 0;
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    const std::vector<double> plan = forest.predict_proba(probes.row(i));
    const std::vector<double> nested = forest.predict_proba_nested(probes.row(i));
    for (std::size_t c = 0; c < plan.size(); ++c) {
      // Bitwise, so +0.0 vs -0.0 counts as a difference.
      EXPECT_EQ(std::bit_cast<std::uint64_t>(plan[c]),
                std::bit_cast<std::uint64_t>(nested[c]))
          << "row " << i << " class " << c;
      EXPECT_EQ(std::bit_cast<std::uint32_t>(matrix_proba.at(i, c)),
                std::bit_cast<std::uint32_t>(static_cast<float>(nested[c])))
          << "row " << i << " class " << c;
      if (nested[c] == 0.0) {
        ++zero_outputs;
        // The premise of dropping zero entries: the nested accumulator
        // starts at +0.0 and never becomes -0.0.
        EXPECT_FALSE(std::signbit(nested[c])) << "row " << i << " class " << c;
      }
    }
  }
  EXPECT_GE(zero_outputs, 6);  // the fixture really exercises zero sums
}

TEST(FlatForestSparse, BinaryLoadRebuildsDroppedZerosAsPositiveZero) {
  // The CSR image carries no zero entries, so the rebuilt dense view holds
  // +0.0f where the source held -0.0f — and still predicts bit-identically.
  const RandomForest forest = signed_zero_forest();
  std::ostringstream image(std::ios::binary);
  forest.save_binary(image);
  std::istringstream in(image.str(), std::ios::binary);
  RandomForest loaded;
  loaded.load_binary(in);
  const std::span<const float> pool = loaded.tree(0).proba_pool();
  ASSERT_EQ(pool.size(), 6u);
  EXPECT_FALSE(std::signbit(pool[0]));
  EXPECT_EQ(pool[1], 0.25f);
  const Matrix probes = signed_zero_probes();
  for (std::size_t i = 0; i < probes.rows(); ++i) {
    const std::vector<double> original = forest.predict_proba_nested(probes.row(i));
    const std::vector<double> restored = loaded.predict_proba_nested(probes.row(i));
    EXPECT_EQ(0, std::memcmp(original.data(), restored.data(),
                             original.size() * sizeof(double)));
  }
}

/// A writable copy of a plan's payload; `at` maps one of the plan's
/// section views to the same elements in the copy.
struct PayloadCopy {
  explicit PayloadCopy(const FlatForest& source)
      : plan(source), bytes(source.payload().begin(), source.payload().end()) {}

  template <typename T>
  T* at(std::span<const T> section) {
    const auto offset =
        reinterpret_cast<const std::byte*>(section.data()) - plan.payload().data();
    return reinterpret_cast<T*>(bytes.data() + offset);
  }

  FlatForest attach(const FlatForest::Shape& shape) const {
    return FlatForest::attach({bytes.data(), bytes.size()}, shape, nullptr);
  }
  FlatForest attach() const { return attach(plan.shape()); }

  const FlatForest& plan;
  std::vector<std::byte> bytes;
};

TEST(FlatForestSparse, AttachAcceptsTheUnmodifiedCopy) {
  const RandomForest forest = signed_zero_forest();
  const PayloadCopy copy(forest.plan());
  EXPECT_NO_THROW(copy.attach());
}

TEST(FlatForestSparse, AttachRejectsClassIdBeyondClassCount) {
  const RandomForest forest = signed_zero_forest();
  PayloadCopy copy(forest.plan());
  copy.at(forest.plan().leaf_classes())[0] = 3;  // n_classes == 3
  EXPECT_THROW(copy.attach(), std::runtime_error);
}

TEST(FlatForestSparse, AttachRejectsNonAscendingClassIds) {
  const RandomForest forest = signed_zero_forest();
  // Leaf 2 (tree 1's left leaf) stores classes 0, 1, 2 at entries 3..5.
  ASSERT_EQ(forest.plan().leaf_starts()[2], 3u);
  ASSERT_EQ(forest.plan().leaf_starts()[3], 6u);
  {
    PayloadCopy copy(forest.plan());
    std::uint32_t* classes = copy.at(forest.plan().leaf_classes());
    std::swap(classes[3], classes[4]);  // 1, 0, 2
    EXPECT_THROW(copy.attach(), std::runtime_error);
  }
  {
    PayloadCopy copy(forest.plan());
    copy.at(forest.plan().leaf_classes())[4] = 0;  // 0, 0, 2: a duplicate
    EXPECT_THROW(copy.attach(), std::runtime_error);
  }
}

TEST(FlatForestSparse, AttachRejectsDecreasingLeafStart) {
  const RandomForest forest = signed_zero_forest();
  PayloadCopy copy(forest.plan());
  // leaf_start is 0, 1, 3, 6, 6; make leaf 1's range run backwards.
  copy.at(forest.plan().leaf_starts())[2] = 0;
  EXPECT_THROW(copy.attach(), std::runtime_error);
}

TEST(FlatForestSparse, AttachRejectsLeafIndexOutsideItsTree) {
  const RandomForest forest = signed_zero_forest();
  PayloadCopy copy(forest.plan());
  // Node 1 is tree 0's left leaf (leaf 0); leaf 2 exists but belongs to
  // tree 1.
  ASSERT_EQ(forest.plan().leaf_indices()[1], 0);
  copy.at(forest.plan().leaf_indices())[1] = 2;
  EXPECT_THROW(copy.attach(), std::runtime_error);
  copy.at(forest.plan().leaf_indices())[1] = 4;  // past every leaf
  EXPECT_THROW(copy.attach(), std::runtime_error);
}

TEST(FlatForestSparse, AttachRejectsWrongLeafEntries) {
  const RandomForest forest = signed_zero_forest();
  {
    // The shape (the image header) disagrees with the payload size.
    const PayloadCopy copy(forest.plan());
    FlatForest::Shape shape = forest.plan().shape();
    shape.leaf_entries -= 1;
    EXPECT_THROW(copy.attach(shape), std::runtime_error);
  }
  {
    // The prefix sums end short of the declared entry count.
    PayloadCopy copy(forest.plan());
    copy.at(forest.plan().leaf_starts())[4] = 5;
    EXPECT_THROW(copy.attach(), std::runtime_error);
  }
  {
    // Through the image header: leaf_entries sits at header offset 32.
    std::ostringstream out(std::ios::binary);
    forest.save_binary(out);
    std::string image = out.str();
    std::uint32_t entries = 0;
    std::memcpy(&entries, image.data() + 32, sizeof entries);
    ASSERT_EQ(entries, 6u);
    entries += 1;
    std::memcpy(image.data() + 32, &entries, sizeof entries);
    RandomForest loaded;
    EXPECT_THROW(load_from_string(loaded, image), std::runtime_error);
  }
}

// --- the lazy per-tree view -----------------------------------------------

RandomForest binary_loaded(const RandomForest& forest) {
  RandomForest loaded;
  load_from_string(loaded, binary_image(forest));
  return loaded;
}

TEST(LazyTreeView, InferenceAfterBinaryLoadBuildsNoView) {
  fhc::util::Rng rng(18);
  const Dataset data = make_dataset(90, 5, 4, rng);
  ForestParams params;
  params.n_estimators = 9;
  RandomForest forest;
  forest.fit(data.x, data.y, 4, {}, params);

  const std::uint64_t before = tree_view_materializations();
  const RandomForest loaded = binary_loaded(forest);
  for (std::size_t i = 0; i < data.x.rows(); ++i) {
    (void)loaded.predict_proba(data.x.row(i));
    (void)loaded.predict(data.x.row(i));
  }
  (void)loaded.predict_proba_matrix(data.x);
  EXPECT_EQ(loaded.tree_count(), forest.tree_count());
  const std::vector<double> original = forest.feature_importances();
  const std::vector<double> restored = loaded.feature_importances();
  ASSERT_EQ(original.size(), restored.size());
  EXPECT_EQ(0, std::memcmp(original.data(), restored.data(),
                           original.size() * sizeof(double)));
  std::ostringstream image(std::ios::binary);
  loaded.save_binary(image);
  EXPECT_EQ(tree_view_materializations(), before);
}

TEST(LazyTreeView, EachViewUserBuildsItExactlyOnce) {
  const RandomForest forest = small_fitted_forest();
  fhc::util::Rng rng(19);
  const Dataset data = make_dataset(4, 5, 4, rng);
  std::ostringstream fitted_text;
  forest.save(fitted_text);

  {
    const RandomForest loaded = binary_loaded(forest);
    const std::uint64_t before = tree_view_materializations();
    EXPECT_EQ(loaded.tree(0).node_count(), forest.tree(0).node_count());
    EXPECT_EQ(loaded.tree(3).depth(), forest.tree(3).depth());
    EXPECT_EQ(tree_view_materializations(), before + 1);
  }
  {
    const RandomForest loaded = binary_loaded(forest);
    const std::uint64_t before = tree_view_materializations();
    for (std::size_t i = 0; i < data.x.rows(); ++i) {
      const std::vector<double> plan = loaded.predict_proba(data.x.row(i));
      const std::vector<double> nested = loaded.predict_proba_nested(data.x.row(i));
      EXPECT_EQ(0, std::memcmp(plan.data(), nested.data(), plan.size() * sizeof(double)));
    }
    EXPECT_EQ(tree_view_materializations(), before + 1);
  }
  {
    const RandomForest loaded = binary_loaded(forest);
    const std::uint64_t before = tree_view_materializations();
    std::ostringstream first;
    std::ostringstream second;
    loaded.save(first);
    loaded.save(second);
    EXPECT_EQ(tree_view_materializations(), before + 1);
    EXPECT_EQ(first.str(), fitted_text.str());
    EXPECT_EQ(second.str(), fitted_text.str());
  }
}

TEST(LazyTreeView, CopiesShareOneView) {
  const RandomForest forest = small_fitted_forest();
  const RandomForest loaded = binary_loaded(forest);
  const RandomForest copy = loaded;
  const std::uint64_t before = tree_view_materializations();
  (void)copy.tree(0);
  (void)loaded.tree(0);
  EXPECT_EQ(tree_view_materializations(), before + 1);
}

TEST(LazyTreeView, FittedAndTextLoadedForestsNeverMaterialize) {
  const std::uint64_t before = tree_view_materializations();
  const RandomForest forest = small_fitted_forest();
  std::stringstream text;
  forest.save(text);
  RandomForest loaded;
  loaded.load(text);
  (void)loaded.tree(0);
  (void)forest.tree(0);
  EXPECT_EQ(tree_view_materializations(), before);
}

}  // namespace
}  // namespace fhc::ml
