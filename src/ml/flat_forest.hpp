// FlatForest — the compiled, cache-friendly inference plan for a fitted
// RandomForest.
//
// predict_proba walks pointer-chased per-tree Node arrays and pays one
// heap allocation per tree per row; at service rates (every submitted
// binary classified in a Slurm prolog) that is the hot path. FlatForest
// packs every tree's nodes into contiguous structure-of-arrays sections —
// feature[], threshold[], child[] (2 per node), leaf_index[] — and walks
// a *block* of rows through all trees tree-major: each tree's few KB of
// nodes stay hot in L1/L2 across the whole row block instead of being
// re-missed per row.
//
// Leaves are sparse (CSR): leaf_start[] prefix sums over (leaf_class[],
// leaf_value[]) pairs holding only the entries unequal to 0.0f, in
// ascending class order. Fitted leaves are almost all pure, so at 73
// classes this is over 20x smaller than a dense row per leaf.
//
// Bit-identity contract: every accumulation is `double += float` over
// trees in index order, then one multiply by 1/n_trees — the nested
// DecisionTree::predict_proba sequence minus the adds of zero entries,
// which are exact: the accumulator starts at +0.0, a round-to-nearest sum
// is -0.0 only when both operands are, so it is never -0.0, and
// x + (±0.0f) == x for every such x (property tests in
// tests/ml/test_flat_forest.cpp, signed zeros included).
//
// The plan's backing buffer IS the payload of the binary forest image
// (RandomForest::save_binary writes it verbatim behind a small header),
// which is what makes mmap'd zero-copy model load possible: attach() can
// point the section spans straight into a ModelMap'd file, so a RELOAD
// parses no text and copies none of the node data.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>

#include "ml/matrix.hpp"

namespace fhc::ml {

class DecisionTree;

class FlatForest {
 public:
  /// Shape of a plan — the binary header carries exactly these counts.
  struct Shape {
    std::size_t n_classes = 0;
    std::size_t n_features = 0;
    std::size_t tree_count = 0;
    std::size_t total_nodes = 0;
    std::size_t leaf_count = 0;    // leaves over all trees
    std::size_t leaf_entries = 0;  // nonzero (class, value) pairs over all leaves
  };

  FlatForest() = default;

  /// Compiles fitted trees into an owned SoA payload.
  static FlatForest build(std::span<const DecisionTree> trees, int n_classes,
                          std::size_t n_features);

  /// Adopts an existing payload (an owned buffer or an mmap'd model file)
  /// without copying the section data. `keepalive` owns the bytes; the
  /// plan holds it for its lifetime. `payload` must be 8-byte aligned and
  /// exactly payload_size(shape) long. Validates every link, leaf index
  /// and CSR entry so a corrupt or crafted file cannot cause an
  /// out-of-range walk; throws std::runtime_error on any violation.
  static FlatForest attach(std::span<const std::byte> payload, const Shape& shape,
                           std::shared_ptr<const void> keepalive);

  /// Payload bytes a plan of this shape occupies (sections + alignment
  /// padding) — what save_binary writes after the header.
  static std::size_t payload_size(const Shape& shape);

  bool compiled() const noexcept { return !node_base_.empty(); }
  const Shape& shape() const noexcept { return shape_; }
  std::span<const std::byte> payload() const noexcept { return payload_; }

  /// Sums leaf distributions over all trees for rows [begin, end) into
  /// `acc` ((end-begin) x n_classes row-major doubles, zeroed here) —
  /// tree-major, zero allocation. Callers scale by 1/tree_count.
  void accumulate_block(const Matrix& rows, std::size_t begin, std::size_t end,
                        std::span<double> acc) const;

  /// Mean class probabilities for one row into caller-owned `out`
  /// (size n_classes) — allocation-free single-row predict.
  void predict_proba(std::span<const float> row, std::span<double> out) const;

  /// Mean class probabilities for rows [begin, end) of `rows`, written to
  /// the same row indices of `out` (shape rows.rows() x n_classes, float,
  /// cast after double accumulation exactly like the nested matrix path).
  /// No per-call allocation beyond a reused thread-local scratch.
  void predict_proba_block(const Matrix& rows, std::size_t begin, std::size_t end,
                           Matrix& out) const;

  /// Whole-matrix convenience: predict_proba_block over every row.
  void predict_proba_block(const Matrix& rows, Matrix& out) const;

  // --- section views (tree-view reconstruction, tests) ------------------
  std::span<const std::uint32_t> node_base() const noexcept { return node_base_; }
  std::span<const std::uint32_t> leaf_base() const noexcept { return leaf_base_; }
  std::span<const std::uint32_t> depths() const noexcept { return depth_; }
  std::span<const std::int32_t> features() const noexcept { return feature_; }
  std::span<const float> thresholds() const noexcept { return threshold_; }
  std::span<const std::int32_t> children() const noexcept { return child_; }
  std::span<const std::int32_t> leaf_indices() const noexcept { return leaf_index_; }
  std::span<const std::uint32_t> leaf_starts() const noexcept { return leaf_start_; }
  std::span<const std::uint32_t> leaf_classes() const noexcept { return leaf_class_; }
  std::span<const float> leaf_values() const noexcept { return leaf_value_; }
  /// Per-tree unnormalized importances, tree-major (tree_count x n_features).
  std::span<const double> importances() const noexcept { return importances_; }

 private:
  /// acc[class] += value for each stored entry of `leaf`.
  void add_leaf(double* acc, std::uint32_t leaf) const noexcept;

  Shape shape_;
  std::span<const std::byte> payload_;

  // Views into payload_ — node_base_/leaf_base_ carry tree_count + 1
  // prefix sums, child_ two entries per node (left, right), leaf_index_ a
  // global leaf index per node (-1 for interior nodes), leaf_start_
  // leaf_count + 1 prefix sums into the entry pairs.
  std::span<const std::uint32_t> node_base_;
  std::span<const std::uint32_t> leaf_base_;
  std::span<const std::uint32_t> depth_;
  std::span<const std::int32_t> feature_;
  std::span<const float> threshold_;
  std::span<const std::int32_t> child_;
  std::span<const std::int32_t> leaf_index_;
  std::span<const std::uint32_t> leaf_start_;
  std::span<const std::uint32_t> leaf_class_;
  std::span<const float> leaf_value_;
  std::span<const double> importances_;

  std::shared_ptr<const void> storage_;  // owns payload_'s bytes
};

}  // namespace fhc::ml
