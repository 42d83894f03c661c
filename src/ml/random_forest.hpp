// Random Forest classifier (Breiman-style bagging of CART trees).
//
// Matches the scikit-learn behaviour the paper relies on:
//  * bootstrap resampling per tree (implemented as multiplicity weights so
//    class-balance weights compose multiplicatively),
//  * per-node feature subsampling (max_features = sqrt by default),
//  * predict_proba = mean of tree leaf distributions,
//  * feature_importances = mean of per-tree normalized impurity
//    importances (Table 5's source).
//
// Trees train in parallel on the shared pool; each tree derives its own
// RNG stream from (forest seed, tree index) so results are independent of
// thread scheduling.
//
// Inference runs on the compiled FlatForest plan. The per-tree
// DecisionTree view serves only text save, tree() and the nested
// reference walk; after a binary load it is built lazily, on first use.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "ml/decision_tree.hpp"
#include "ml/flat_forest.hpp"
#include "ml/matrix.hpp"

namespace fhc::util {
class ThreadPool;
}

namespace fhc::ml {

struct ForestParams {
  int n_estimators = 200;
  TreeParams tree;        // tree.max_features = -1 (sqrt) by default here
  bool bootstrap = true;
  std::uint64_t seed = 1;

  ForestParams() { tree.max_features = -1; }
};

/// Test hook: process-wide count of per-tree views built from a plan (a
/// binary-loaded forest's lazy view) — proves a path never builds one.
std::uint64_t tree_view_materializations() noexcept;

class RandomForest {
 public:
  /// Fits `n_estimators` trees. `sample_weight` may be empty (all ones);
  /// balanced class weighting is applied by passing the weights here.
  /// `pool` selects where the per-tree work runs (nullptr = the shared
  /// pool); results are bit-identical for any pool because every tree's
  /// RNG stream is derived from (forest seed, tree index), never from
  /// scheduling — a 1-thread pool is the serial reference path.
  void fit(const Matrix& x, const std::vector<int>& y, int n_classes,
           std::span<const double> sample_weight, const ForestParams& params,
           util::ThreadPool* pool = nullptr);

  /// Mean class-probability vector across trees — served by the compiled
  /// FlatForest plan (bit-identical to the nested reference path).
  std::vector<double> predict_proba(std::span<const float> row) const;

  /// Nested reference path: walks each DecisionTree in turn via
  /// accumulate_proba (no per-tree allocation). The plan must stay
  /// bit-identical to this — it is what the FlatForest property test
  /// compares against.
  std::vector<double> predict_proba_nested(std::span<const float> row) const;

  /// Probability matrix for many rows — row blocks fan out across the
  /// shared pool (one task per block, not per row), each scored by one
  /// tree-major predict_proba_block pass.
  Matrix predict_proba_matrix(const Matrix& x) const;

  /// argmax label for one sample.
  int predict(std::span<const float> row) const;

  /// The compiled inference plan (valid whenever the forest is fitted or
  /// loaded).
  const FlatForest& plan() const noexcept { return plan_; }

  /// Mean normalized impurity importances, re-normalized to sum 1 — read
  /// from the plan's importances section, trees in index order.
  std::vector<double> feature_importances() const;

  int n_classes() const noexcept { return n_classes_; }
  std::size_t n_features() const noexcept { return n_features_; }
  std::size_t tree_count() const noexcept { return plan_.shape().tree_count; }
  const DecisionTree& tree(std::size_t i) const { return trees().at(i); }

  /// Text serialization of the fitted ensemble (train once, classify in a
  /// Slurm prolog — the paper's deployment model). Throws
  /// std::runtime_error on malformed input.
  void save(std::ostream& out) const;
  void load(std::istream& in);

  /// Binary forest image ("FHCFRST2"): a 64-byte little-endian header
  /// followed by the FlatForest SoA payload (sparse CSR leaves) written
  /// verbatim, so save -> load_binary -> save round-trips byte-identically
  /// and a loaded image needs no float parsing. Throws std::runtime_error
  /// on malformed input, on the retired dense-leaf "FHCFRST1" image (with
  /// the fix: retrain with fhc_train, or load the text model) and
  /// on big-endian hosts, which the format does not support.
  void save_binary(std::ostream& out) const;
  void load_binary(std::istream& in);

  /// Zero-copy variant: adopts `bytes` (header + payload, e.g. an mmap'd
  /// model file) without copying the node sections; `keepalive` owns the
  /// bytes for the lifetime of the plan. `bytes` may extend past the model
  /// (the mapped file's tail); the payload must start 8-byte aligned.
  void load_binary(std::span<const std::byte> bytes,
                   std::shared_ptr<const void> keepalive);

  /// The shape in a binary forest image's header, validated as
  /// load_binary validates it (tools report it without attaching).
  static FlatForest::Shape binary_shape(std::span<const std::byte> bytes);

 private:
  /// The per-tree view behind text save, tree() and the nested walk. Fit
  /// and text load fill it; after a binary load trees() builds it from the
  /// plan once, on first use. Copies share it (immutable once built).
  struct TreeView {
    std::once_flag once;
    std::vector<DecisionTree> trees;
  };

  const std::vector<DecisionTree>& trees() const;
  /// Installs `trees` as the view and compiles the plan from them.
  void adopt_trees(std::vector<DecisionTree> trees);

  FlatForest plan_;
  std::shared_ptr<TreeView> view_;
  int n_classes_ = 0;
  std::size_t n_features_ = 0;
};

}  // namespace fhc::ml
