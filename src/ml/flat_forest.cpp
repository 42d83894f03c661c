#include "ml/flat_forest.hpp"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "ml/decision_tree.hpp"

namespace fhc::ml {

namespace {

constexpr std::size_t kMaxCount = std::size_t{1} << 24;  // matches the text loaders

constexpr std::size_t align8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Byte offset of every SoA section inside the payload. Section order is
/// part of the binary format; every section start is 4-byte aligned by
/// construction (all leading sections hold 4-byte elements) and the
/// importances section is padded up to 8.
struct Layout {
  std::size_t node_base;
  std::size_t leaf_base;
  std::size_t depth;
  std::size_t feature;
  std::size_t threshold;
  std::size_t child;
  std::size_t leaf_index;
  std::size_t leaf_start;
  std::size_t leaf_class;
  std::size_t leaf_value;
  std::size_t importances;
  std::size_t total;
};

/// Rejects counts a real forest never has before any section math runs
/// (the products below would overflow on crafted 32-bit-max values).
Layout layout_for(const FlatForest::Shape& s) {
  if (s.n_classes == 0 || s.n_classes > kMaxCount || s.n_features > kMaxCount ||
      s.tree_count == 0 || s.tree_count > kMaxCount ||
      s.total_nodes > (kMaxCount << 2) || s.leaf_count > s.total_nodes ||
      s.leaf_entries > (kMaxCount << 4)) {
    throw std::runtime_error("FlatForest: unreasonable shape");
  }
  Layout l{};
  std::size_t o = 0;
  l.node_base = o;
  o += 4 * (s.tree_count + 1);
  l.leaf_base = o;
  o += 4 * (s.tree_count + 1);
  l.depth = o;
  o += 4 * s.tree_count;
  l.feature = o;
  o += 4 * s.total_nodes;
  l.threshold = o;
  o += 4 * s.total_nodes;
  l.child = o;
  o += 8 * s.total_nodes;
  l.leaf_index = o;
  o += 4 * s.total_nodes;
  l.leaf_start = o;
  o += 4 * (s.leaf_count + 1);
  l.leaf_class = o;
  o += 4 * s.leaf_entries;
  l.leaf_value = o;
  o += 4 * s.leaf_entries;
  o = align8(o);
  l.importances = o;
  o += 8 * s.tree_count * s.n_features;
  l.total = o;
  return l;
}

template <typename T>
std::span<T> section(std::byte* base, std::size_t offset, std::size_t count) {
  return {reinterpret_cast<T*>(base + offset), count};
}

template <typename T>
std::span<const T> section(const std::byte* base, std::size_t offset,
                           std::size_t count) {
  return {reinterpret_cast<const T*>(base + offset), count};
}

}  // namespace

std::size_t FlatForest::payload_size(const Shape& shape) {
  return layout_for(shape).total;
}

FlatForest FlatForest::build(std::span<const DecisionTree> trees, int n_classes,
                             std::size_t n_features) {
  if (trees.empty() || n_classes <= 0) {
    throw std::logic_error("FlatForest::build: empty forest");
  }
  const auto k = static_cast<std::size_t>(n_classes);
  Shape shape;
  shape.n_classes = k;
  shape.n_features = n_features;
  shape.tree_count = trees.size();
  for (const DecisionTree& tree : trees) {
    shape.total_nodes += tree.nodes().size();
    const auto pool = tree.proba_pool();
    for (const DecisionTree::Node& node : tree.nodes()) {
      if (node.proba_offset < 0) continue;
      ++shape.leaf_count;
      const float* const leaf = pool.data() + node.proba_offset;
      shape.leaf_entries += static_cast<std::size_t>(
          std::count_if(leaf, leaf + k, [](float v) { return v != 0.0f; }));
    }
  }

  const Layout layout = layout_for(shape);
  // Zero-initialized so alignment padding (and every reserved byte) is
  // deterministic: the buffer is written verbatim by save_binary and the
  // binary round-trip test compares it byte for byte.
  auto storage = std::make_shared<std::vector<std::byte>>(layout.total,
                                                          std::byte{0});
  std::byte* base = storage->data();
  auto node_base = section<std::uint32_t>(base, layout.node_base, shape.tree_count + 1);
  auto leaf_base = section<std::uint32_t>(base, layout.leaf_base, shape.tree_count + 1);
  auto depth = section<std::uint32_t>(base, layout.depth, shape.tree_count);
  auto feature = section<std::int32_t>(base, layout.feature, shape.total_nodes);
  auto threshold = section<float>(base, layout.threshold, shape.total_nodes);
  auto child = section<std::int32_t>(base, layout.child, 2 * shape.total_nodes);
  auto leaf_index = section<std::int32_t>(base, layout.leaf_index, shape.total_nodes);
  auto leaf_start = section<std::uint32_t>(base, layout.leaf_start, shape.leaf_count + 1);
  auto leaf_class = section<std::uint32_t>(base, layout.leaf_class, shape.leaf_entries);
  auto leaf_value = section<float>(base, layout.leaf_value, shape.leaf_entries);
  auto importances = section<double>(base, layout.importances,
                                     shape.tree_count * shape.n_features);

  std::uint32_t node_cursor = 0;
  std::uint32_t leaf_cursor = 0;
  std::uint32_t entry_cursor = 0;
  for (std::size_t t = 0; t < trees.size(); ++t) {
    const DecisionTree& tree = trees[t];
    node_base[t] = node_cursor;
    leaf_base[t] = leaf_cursor;
    depth[t] = static_cast<std::uint32_t>(tree.depth());
    const auto nodes = tree.nodes();
    for (std::size_t i = 0; i < nodes.size(); ++i) {
      const DecisionTree::Node& node = nodes[i];
      const std::size_t g = node_cursor + i;
      if (node.proba_offset >= 0) {
        // Canonical leaf encoding regardless of what the source node
        // carried in its unused fields — keeps the payload a pure function
        // of the predictor. Leaves are numbered in node order.
        feature[g] = -1;
        threshold[g] = 0.0f;
        child[2 * g] = -1;
        child[2 * g + 1] = -1;
        leaf_index[g] = static_cast<std::int32_t>(leaf_cursor);
        leaf_start[leaf_cursor++] = entry_cursor;
        const float* const leaf = tree.proba_pool().data() + node.proba_offset;
        for (std::size_t c = 0; c < k; ++c) {
          if (leaf[c] == 0.0f) continue;  // +0.0f and -0.0f add nothing
          leaf_class[entry_cursor] = static_cast<std::uint32_t>(c);
          leaf_value[entry_cursor] = leaf[c];
          ++entry_cursor;
        }
      } else {
        feature[g] = node.feature;
        threshold[g] = node.threshold;
        child[2 * g] = static_cast<std::int32_t>(node_cursor) + node.left;
        child[2 * g + 1] = static_cast<std::int32_t>(node_cursor) + node.right;
        leaf_index[g] = -1;
      }
    }
    // Trees always carry exactly n_features importances (fit constructs
    // them that way and the text loader enforces it).
    const auto& imp = tree.feature_importances();
    std::copy(imp.begin(), imp.begin() + static_cast<std::ptrdiff_t>(shape.n_features),
              importances.begin() +
                  static_cast<std::ptrdiff_t>(t * shape.n_features));
    node_cursor += static_cast<std::uint32_t>(nodes.size());
  }
  node_base[shape.tree_count] = node_cursor;
  leaf_base[shape.tree_count] = leaf_cursor;
  leaf_start[shape.leaf_count] = entry_cursor;

  return attach({storage->data(), storage->size()}, shape, storage);
}

FlatForest FlatForest::attach(std::span<const std::byte> payload, const Shape& shape,
                              std::shared_ptr<const void> keepalive) {
  const Layout layout = layout_for(shape);
  if (payload.size() != layout.total) {
    throw std::runtime_error("FlatForest::attach: payload size mismatch");
  }
  if (reinterpret_cast<std::uintptr_t>(payload.data()) % 8 != 0) {
    throw std::runtime_error("FlatForest::attach: payload misaligned");
  }

  FlatForest plan;
  plan.shape_ = shape;
  plan.payload_ = payload;
  plan.storage_ = std::move(keepalive);
  const std::byte* base = payload.data();
  plan.node_base_ = section<const std::uint32_t>(base, layout.node_base,
                                                 shape.tree_count + 1);
  plan.leaf_base_ = section<const std::uint32_t>(base, layout.leaf_base,
                                                 shape.tree_count + 1);
  plan.depth_ = section<const std::uint32_t>(base, layout.depth, shape.tree_count);
  plan.feature_ = section<const std::int32_t>(base, layout.feature, shape.total_nodes);
  plan.threshold_ = section<const float>(base, layout.threshold, shape.total_nodes);
  plan.child_ = section<const std::int32_t>(base, layout.child,
                                            2 * shape.total_nodes);
  plan.leaf_index_ = section<const std::int32_t>(base, layout.leaf_index,
                                                 shape.total_nodes);
  plan.leaf_start_ = section<const std::uint32_t>(base, layout.leaf_start,
                                                  shape.leaf_count + 1);
  plan.leaf_class_ = section<const std::uint32_t>(base, layout.leaf_class,
                                                  shape.leaf_entries);
  plan.leaf_value_ = section<const float>(base, layout.leaf_value, shape.leaf_entries);
  plan.importances_ = section<const double>(base, layout.importances,
                                            shape.tree_count * shape.n_features);

  // Full structural validation before any walk can happen: prefix sums
  // must be consistent, every leaf index must fall inside its tree's leaf
  // range, every leaf's entries must name distinct in-range classes in
  // ascending order, and every interior node must reference a valid
  // feature and forward in-tree children (forward links make every walk
  // provably terminate).
  if (plan.node_base_[0] != 0 ||
      plan.node_base_[shape.tree_count] != shape.total_nodes ||
      plan.leaf_base_[0] != 0 || plan.leaf_base_[shape.tree_count] != shape.leaf_count) {
    throw std::runtime_error("FlatForest::attach: bad section prefix sums");
  }
  if (plan.leaf_start_[0] != 0 || plan.leaf_start_[shape.leaf_count] != shape.leaf_entries) {
    throw std::runtime_error("FlatForest::attach: bad leaf entry prefix sums");
  }
  for (std::size_t leaf = 0; leaf < shape.leaf_count; ++leaf) {
    const std::uint32_t begin = plan.leaf_start_[leaf];
    const std::uint32_t end = plan.leaf_start_[leaf + 1];
    if (end < begin || end > shape.leaf_entries) {
      throw std::runtime_error("FlatForest::attach: leaf entry prefix sums decrease");
    }
    for (std::uint32_t e = begin; e < end; ++e) {
      if (plan.leaf_class_[e] >= shape.n_classes ||
          (e > begin && plan.leaf_class_[e] <= plan.leaf_class_[e - 1])) {
        throw std::runtime_error("FlatForest::attach: bad leaf class id");
      }
    }
  }
  for (std::size_t t = 0; t < shape.tree_count; ++t) {
    const std::uint32_t nb = plan.node_base_[t];
    const std::uint32_t ne = plan.node_base_[t + 1];
    const std::uint32_t lb = plan.leaf_base_[t];
    const std::uint32_t le = plan.leaf_base_[t + 1];
    if (ne <= nb || ne > shape.total_nodes || le < lb || le > shape.leaf_count) {
      throw std::runtime_error("FlatForest::attach: empty or reversed tree");
    }
    for (std::uint32_t i = nb; i < ne; ++i) {
      const std::int32_t leaf = plan.leaf_index_[i];
      if (leaf >= 0) {
        if (static_cast<std::uint32_t>(leaf) < lb ||
            static_cast<std::uint32_t>(leaf) >= le) {
          throw std::runtime_error("FlatForest::attach: leaf index out of range");
        }
      } else {
        const std::int32_t f = plan.feature_[i];
        if (f < 0 || static_cast<std::size_t>(f) >= shape.n_features) {
          throw std::runtime_error("FlatForest::attach: feature out of range");
        }
        const std::int32_t left = plan.child_[2 * i];
        const std::int32_t right = plan.child_[2 * i + 1];
        if (left <= static_cast<std::int32_t>(i) ||
            right <= static_cast<std::int32_t>(i) ||
            static_cast<std::uint32_t>(left) >= ne ||
            static_cast<std::uint32_t>(right) >= ne) {
          throw std::runtime_error("FlatForest::attach: child link out of range");
        }
      }
    }
  }
  return plan;
}

void FlatForest::add_leaf(double* acc, std::uint32_t leaf) const noexcept {
  const std::uint32_t end = leaf_start_[leaf + 1];
  for (std::uint32_t e = leaf_start_[leaf]; e < end; ++e) {
    acc[leaf_class_[e]] += static_cast<double>(leaf_value_[e]);
  }
}

void FlatForest::accumulate_block(const Matrix& rows, std::size_t begin,
                                  std::size_t end, std::span<double> acc) const {
  if (!compiled()) throw std::logic_error("FlatForest: not compiled");
  if (begin > end || end > rows.rows() || rows.cols() < shape_.n_features ||
      acc.size() != (end - begin) * shape_.n_classes) {
    throw std::invalid_argument("FlatForest::accumulate_block: bad shape");
  }
  std::fill(acc.begin(), acc.end(), 0.0);
  const std::size_t k = shape_.n_classes;
  const std::int32_t* const leaf_index = leaf_index_.data();
  const std::int32_t* const feature = feature_.data();
  const float* const threshold = threshold_.data();
  const std::int32_t* const child = child_.data();
  // A single row's walk is a serial chain of dependent (usually cold)
  // loads — the memory latency, not bandwidth, bounds it. Walking a group
  // of rows through the tree in lockstep gives the out-of-order core
  // kGroup independent miss chains to overlap, then the leaves are
  // accumulated in a separate phase. The phase split changes nothing
  // about the result: per (row, class) the adds still happen once per
  // tree, trees in ascending order.
  constexpr std::size_t kGroup = 8;
  std::uint32_t node[kGroup];
  const float* row_ptr[kGroup];
  for (std::size_t t = 0; t < shape_.tree_count; ++t) {
    const std::uint32_t root = node_base_[t];
    for (std::size_t r0 = begin; r0 < end; r0 += kGroup) {
      const std::size_t lanes = std::min(kGroup, end - r0);
      for (std::size_t g = 0; g < lanes; ++g) {
        node[g] = root;
        row_ptr[g] = rows.row(r0 + g).data();
      }
      // Phase 1: advance every lane one level per sweep until all lanes
      // sit on a leaf. Finished lanes cost one predictable re-check.
      for (;;) {
        std::size_t active = 0;
        for (std::size_t g = 0; g < lanes; ++g) {
          const std::uint32_t n = node[g];
          if (leaf_index[n] < 0) {
            node[g] = static_cast<std::uint32_t>(
                child[2 * n + (row_ptr[g][static_cast<std::uint32_t>(feature[n])] <=
                                       threshold[n]
                                   ? 0
                                   : 1)]);
            ++active;
          }
        }
        if (active == 0) break;
      }
      // Phase 2: add each lane's few stored leaf entries, rows in order.
      for (std::size_t g = 0; g < lanes; ++g) {
        add_leaf(acc.data() + (r0 + g - begin) * k,
                 static_cast<std::uint32_t>(leaf_index[node[g]]));
      }
    }
  }
}

void FlatForest::predict_proba(std::span<const float> row,
                               std::span<double> out) const {
  if (!compiled()) throw std::logic_error("FlatForest: not compiled");
  if (out.size() != shape_.n_classes) {
    throw std::invalid_argument("FlatForest::predict_proba: bad output size");
  }
  std::fill(out.begin(), out.end(), 0.0);
  for (std::size_t t = 0; t < shape_.tree_count; ++t) {
    std::uint32_t node = node_base_[t];
    std::int32_t leaf;
    while ((leaf = leaf_index_[node]) < 0) {
      node = static_cast<std::uint32_t>(
          child_[2 * node + (row[static_cast<std::uint32_t>(feature_[node])] <=
                                     threshold_[node]
                                 ? 0
                                 : 1)]);
    }
    add_leaf(out.data(), static_cast<std::uint32_t>(leaf));
  }
  const double inv = 1.0 / static_cast<double>(shape_.tree_count);
  for (double& p : out) p *= inv;
}

void FlatForest::predict_proba_block(const Matrix& rows, std::size_t begin,
                                     std::size_t end, Matrix& out) const {
  if (out.rows() != rows.rows() || out.cols() != shape_.n_classes) {
    throw std::invalid_argument("FlatForest::predict_proba_block: bad output shape");
  }
  // Chunk the range so the double accumulators stay L1-resident while a
  // tree's nodes are streamed across the whole chunk. The scratch is
  // thread-local so repeated calls (and pool workers handling different
  // blocks) allocate once, then never again.
  constexpr std::size_t kChunkRows = 16;
  thread_local std::vector<double> scratch;
  const std::size_t k = shape_.n_classes;
  if (scratch.size() < kChunkRows * k) scratch.resize(kChunkRows * k);
  const double inv = 1.0 / static_cast<double>(shape_.tree_count);
  for (std::size_t chunk = begin; chunk < end; chunk += kChunkRows) {
    const std::size_t chunk_end = std::min(chunk + kChunkRows, end);
    const std::size_t n = chunk_end - chunk;
    accumulate_block(rows, chunk, chunk_end, {scratch.data(), n * k});
    for (std::size_t r = chunk; r < chunk_end; ++r) {
      const double* const acc = scratch.data() + (r - chunk) * k;
      const auto row = out.row(r);
      for (std::size_t c = 0; c < k; ++c) {
        row[c] = static_cast<float>(acc[c] * inv);
      }
    }
  }
}

void FlatForest::predict_proba_block(const Matrix& rows, Matrix& out) const {
  predict_proba_block(rows, 0, rows.rows(), out);
}

}  // namespace fhc::ml
