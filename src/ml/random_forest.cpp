#include "ml/random_forest.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <istream>
#include <numeric>
#include <ostream>
#include <stdexcept>

#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace fhc::ml {

namespace {

// Binary forest image, version 2: a fixed 64-byte header (all counts
// little-endian) followed by FlatForest::payload_size(shape) payload
// bytes. The retired version-1 image ("FHCFRST1", dense leaf pool) is
// refused with the fix rather than converted.
constexpr char kBinaryMagic[8] = {'F', 'H', 'C', 'F', 'R', 'S', 'T', '2'};
constexpr std::uint32_t kBinaryVersion = 2;

struct BinaryHeader {
  char magic[8];
  std::uint32_t version;
  std::uint32_t n_classes;
  std::uint32_t n_features;
  std::uint32_t tree_count;
  std::uint32_t total_nodes;
  std::uint32_t leaf_count;
  std::uint32_t leaf_entries;
  std::uint32_t reserved0;
  std::uint64_t payload_bytes;
  std::uint8_t reserved[16];
};
static_assert(sizeof(BinaryHeader) == 64, "binary header layout drifted");

void require_little_endian(const char* what) {
  if constexpr (std::endian::native != std::endian::little) {
    throw std::runtime_error(std::string(what) +
                             ": binary model format requires a little-endian host");
  }
}

FlatForest::Shape shape_from_header(const BinaryHeader& header) {
  if (std::memcmp(header.magic, "FHCFRST1", sizeof header.magic) == 0) {
    throw std::runtime_error(
        "RandomForest::load_binary: forest image FHCFRST1 (dense leaf pool) is "
        "no longer supported; retrain with `fhc_train`, or load the "
        "text model");
  }
  if (std::memcmp(header.magic, kBinaryMagic, sizeof kBinaryMagic) != 0) {
    throw std::runtime_error("RandomForest::load_binary: bad magic");
  }
  if (header.version != kBinaryVersion) {
    throw std::runtime_error("RandomForest::load_binary: unsupported version");
  }
  FlatForest::Shape shape;
  shape.n_classes = header.n_classes;
  shape.n_features = header.n_features;
  shape.tree_count = header.tree_count;
  shape.total_nodes = header.total_nodes;
  shape.leaf_count = header.leaf_count;
  shape.leaf_entries = header.leaf_entries;
  // payload_size() rejects unreasonable counts before its section math can
  // overflow, but they still admit a tree_count x n_features product whose
  // importances are petabytes: bound the total before the stream loader
  // allocates payload_bytes.
  constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 31;
  if (header.payload_bytes > kMaxPayload) {
    throw std::runtime_error("RandomForest::load_binary: oversized payload");
  }
  if (header.payload_bytes != FlatForest::payload_size(shape)) {
    throw std::runtime_error("RandomForest::load_binary: inconsistent header");
  }
  return shape;
}

/// The dense per-tree view of a validated plan: leaf j of a tree (in node
/// order) owns pool slice [j*k, (j+1)*k), absent entries are +0.0f. That
/// is exactly the layout fit() produces, so a fitted forest's view comes
/// back field for field and its text save byte for byte.
std::vector<DecisionTree> trees_from_plan(const FlatForest& plan) {
  const FlatForest::Shape& shape = plan.shape();
  const std::size_t k = shape.n_classes;
  std::vector<DecisionTree> trees(shape.tree_count);
  for (std::size_t t = 0; t < shape.tree_count; ++t) {
    const std::uint32_t nb = plan.node_base()[t];
    const std::uint32_t ne = plan.node_base()[t + 1];
    const std::uint32_t lb = plan.leaf_base()[t];
    const std::uint32_t le = plan.leaf_base()[t + 1];
    // DecisionTree::load's pool cap: a sparse image must not expand into
    // a tree the text format could not carry.
    if (static_cast<std::uint64_t>(le - lb) * k > (std::uint64_t{1} << 24)) {
      throw std::runtime_error("RandomForest: tree too large for the text view");
    }
    std::vector<DecisionTree::Node> nodes(ne - nb);
    for (std::uint32_t i = nb; i < ne; ++i) {
      DecisionTree::Node& node = nodes[i - nb];
      const std::int32_t leaf = plan.leaf_indices()[i];
      if (leaf >= 0) {
        node.proba_offset = static_cast<std::int32_t>(
            (static_cast<std::uint32_t>(leaf) - lb) * k);
      } else {
        node.feature = plan.features()[i];
        node.threshold = plan.thresholds()[i];
        node.left = plan.children()[2 * i] - static_cast<std::int32_t>(nb);
        node.right = plan.children()[2 * i + 1] - static_cast<std::int32_t>(nb);
      }
    }
    std::vector<float> pool((le - lb) * k, 0.0f);
    for (std::uint32_t leaf = lb; leaf < le; ++leaf) {
      float* const dense = pool.data() + (leaf - lb) * k;
      for (std::uint32_t e = plan.leaf_starts()[leaf]; e < plan.leaf_starts()[leaf + 1];
           ++e) {
        dense[plan.leaf_classes()[e]] = plan.leaf_values()[e];
      }
    }
    std::vector<double> importances(
        plan.importances().begin() + static_cast<std::ptrdiff_t>(t * shape.n_features),
        plan.importances().begin() +
            static_cast<std::ptrdiff_t>((t + 1) * shape.n_features));
    trees[t].restore(std::move(nodes), std::move(pool), std::move(importances),
                     static_cast<int>(k), static_cast<int>(plan.depths()[t]));
  }
  return trees;
}

std::atomic<std::uint64_t> g_tree_view_materializations{0};

}  // namespace

std::uint64_t tree_view_materializations() noexcept {
  return g_tree_view_materializations.load(std::memory_order_relaxed);
}

void RandomForest::fit(const Matrix& x, const std::vector<int>& y, int n_classes,
                       std::span<const double> sample_weight,
                       const ForestParams& params, util::ThreadPool* pool) {
  if (params.n_estimators <= 0) {
    throw std::invalid_argument("RandomForest::fit: n_estimators <= 0");
  }
  if (x.rows() != y.size() || x.rows() == 0) {
    throw std::invalid_argument("RandomForest::fit: bad dataset shape");
  }
  std::vector<double> base_weight(x.rows(), 1.0);
  if (!sample_weight.empty()) {
    if (sample_weight.size() != x.rows()) {
      throw std::invalid_argument("RandomForest::fit: weight size mismatch");
    }
    std::copy(sample_weight.begin(), sample_weight.end(), base_weight.begin());
  }

  std::vector<DecisionTree> trees(static_cast<std::size_t>(params.n_estimators));
  const std::size_t n = x.rows();
  const std::function<void(std::size_t)> fit_tree = [&](std::size_t t) {
    // Independent deterministic stream per tree: results do not depend on
    // which worker trains which tree.
    std::uint64_t stream = params.seed ^ (0x9e3779b97f4a7c15ULL * (t + 1));
    fhc::util::Rng rng(fhc::util::splitmix64(stream));

    std::vector<double> weight = base_weight;
    if (params.bootstrap) {
      // Draw n samples with replacement; fold multiplicities into the
      // weights (x stays shared — no per-tree copies of the matrix).
      std::vector<double> multiplicity(n, 0.0);
      for (std::size_t i = 0; i < n; ++i) {
        multiplicity[static_cast<std::size_t>(rng.next_below(n))] += 1.0;
      }
      for (std::size_t i = 0; i < n; ++i) weight[i] *= multiplicity[i];
      // Zero-weight rows are skipped by the tree through their weights;
      // a tree must still see at least one positive weight.
    }
    trees[t].fit(x, y, n_classes, weight, params.tree, rng);
  };
  if (pool != nullptr) {
    fhc::util::parallel_for(*pool, 0, trees.size(), /*grain=*/1, fit_tree);
  } else {
    fhc::util::parallel_for(trees.size(), fit_tree);
  }
  n_classes_ = n_classes;
  n_features_ = x.cols();
  adopt_trees(std::move(trees));
}

std::vector<double> RandomForest::predict_proba(std::span<const float> row) const {
  if (!plan_.compiled()) throw std::logic_error("RandomForest: not fitted");
  std::vector<double> mean(static_cast<std::size_t>(n_classes_), 0.0);
  plan_.predict_proba(row, mean);
  return mean;
}

std::vector<double> RandomForest::predict_proba_nested(
    std::span<const float> row) const {
  const std::vector<DecisionTree>& forest = trees();
  std::vector<double> mean(static_cast<std::size_t>(n_classes_), 0.0);
  for (const DecisionTree& tree : forest) tree.accumulate_proba(row, mean);
  const double inv = 1.0 / static_cast<double>(forest.size());
  for (double& p : mean) p *= inv;
  return mean;
}

Matrix RandomForest::predict_proba_matrix(const Matrix& x) const {
  if (!plan_.compiled()) throw std::logic_error("RandomForest: not fitted");
  Matrix out(x.rows(), static_cast<std::size_t>(n_classes_));
  // One pool task per row block (not per row): service scoring tasks on
  // the shared pool do not queue behind hundreds of single-row tasks,
  // and each task is one cache-friendly tree-major pass.
  constexpr std::size_t kBlockRows = 64;
  const std::size_t blocks = (x.rows() + kBlockRows - 1) / kBlockRows;
  fhc::util::parallel_for(blocks, [&](std::size_t b) {
    const std::size_t begin = b * kBlockRows;
    const std::size_t end = std::min(begin + kBlockRows, x.rows());
    plan_.predict_proba_block(x, begin, end, out);
  });
  return out;
}

int RandomForest::predict(std::span<const float> row) const {
  const std::vector<double> proba = predict_proba(row);
  return static_cast<int>(std::max_element(proba.begin(), proba.end()) - proba.begin());
}

void RandomForest::save(std::ostream& out) const {
  const std::vector<DecisionTree>& forest = trees();
  out << "forest " << n_classes_ << ' ' << n_features_ << ' ' << forest.size()
      << '\n';
  for (const DecisionTree& tree : forest) tree.save(out);
}

void RandomForest::load(std::istream& in) {
  std::string tag;
  // Signed reads: operator>> into unsigned members would wrap crafted
  // negative header values into huge positives instead of failing.
  long long n_classes = 0;
  long long n_features = 0;
  long long tree_count = 0;
  if (!(in >> tag >> n_classes >> n_features >> tree_count) || tag != "forest") {
    throw std::runtime_error("RandomForest::load: bad header");
  }
  if (n_classes <= 0 || n_features < 0 || tree_count < 0) {
    throw std::runtime_error("RandomForest::load: negative header value");
  }
  if (tree_count == 0) throw std::runtime_error("RandomForest::load: empty forest");
  constexpr long long kMaxCount = 1LL << 24;
  if (tree_count > kMaxCount || n_features > kMaxCount || n_classes > kMaxCount) {
    // n_classes included: a value above INT_MAX would otherwise wrap
    // through the int cast and could collide with the trees' class count.
    throw std::runtime_error("RandomForest::load: oversized header value");
  }
  std::vector<DecisionTree> trees(static_cast<std::size_t>(tree_count));
  for (DecisionTree& tree : trees) {
    tree.load(in);
    if (tree.n_classes() != n_classes) {
      throw std::runtime_error("RandomForest::load: tree class-count mismatch");
    }
    // predict_proba indexes rows of width n_features with each interior
    // node's feature; feature_importances reads importances[0..n_features).
    // Reject trees that would read out of bounds on either.
    if (tree.max_feature_used() >= n_features) {
      throw std::runtime_error("RandomForest::load: tree feature out of range");
    }
    // Exact, not just >=: fit always produces one importance per feature,
    // and the binary format stores exactly n_features per tree — admitting
    // oversized arrays here would make the binary round-trip lossy.
    if (tree.feature_importances().size() != static_cast<std::size_t>(n_features)) {
      throw std::runtime_error("RandomForest::load: importances/features mismatch");
    }
  }
  n_classes_ = static_cast<int>(n_classes);
  n_features_ = static_cast<std::size_t>(n_features);
  adopt_trees(std::move(trees));
}

void RandomForest::save_binary(std::ostream& out) const {
  if (!plan_.compiled()) throw std::logic_error("RandomForest::save_binary: not fitted");
  require_little_endian("RandomForest::save_binary");
  const FlatForest::Shape& shape = plan_.shape();
  BinaryHeader header{};
  std::memcpy(header.magic, kBinaryMagic, sizeof kBinaryMagic);
  header.version = kBinaryVersion;
  header.n_classes = static_cast<std::uint32_t>(shape.n_classes);
  header.n_features = static_cast<std::uint32_t>(shape.n_features);
  header.tree_count = static_cast<std::uint32_t>(shape.tree_count);
  header.total_nodes = static_cast<std::uint32_t>(shape.total_nodes);
  header.leaf_count = static_cast<std::uint32_t>(shape.leaf_count);
  header.leaf_entries = static_cast<std::uint32_t>(shape.leaf_entries);
  header.payload_bytes = plan_.payload().size();
  out.write(reinterpret_cast<const char*>(&header), sizeof header);
  // The compiled plan's buffer is the on-disk payload, written verbatim —
  // save -> load -> save is byte-identical by construction.
  out.write(reinterpret_cast<const char*>(plan_.payload().data()),
            static_cast<std::streamsize>(plan_.payload().size()));
  if (!out) throw std::runtime_error("RandomForest::save_binary: write failed");
}

void RandomForest::load_binary(std::istream& in) {
  require_little_endian("RandomForest::load_binary");
  BinaryHeader header{};
  if (!in.read(reinterpret_cast<char*>(&header), sizeof header)) {
    throw std::runtime_error("RandomForest::load_binary: truncated header");
  }
  (void)shape_from_header(header);  // bounds payload_bytes before allocating
  auto image = std::make_shared<std::vector<std::byte>>(
      sizeof header + static_cast<std::size_t>(header.payload_bytes));
  std::memcpy(image->data(), &header, sizeof header);
  if (!in.read(reinterpret_cast<char*>(image->data() + sizeof header),
               static_cast<std::streamsize>(header.payload_bytes))) {
    throw std::runtime_error("RandomForest::load_binary: truncated payload");
  }
  load_binary(*image, image);
}

FlatForest::Shape RandomForest::binary_shape(std::span<const std::byte> bytes) {
  require_little_endian("RandomForest::load_binary");
  if (bytes.size() < sizeof(BinaryHeader)) {
    throw std::runtime_error("RandomForest::load_binary: truncated header");
  }
  BinaryHeader header{};
  std::memcpy(&header, bytes.data(), sizeof header);
  const FlatForest::Shape shape = shape_from_header(header);
  if (bytes.size() - sizeof header < header.payload_bytes) {
    throw std::runtime_error("RandomForest::load_binary: truncated payload");
  }
  return shape;
}

void RandomForest::load_binary(std::span<const std::byte> bytes,
                               std::shared_ptr<const void> keepalive) {
  const FlatForest::Shape shape = binary_shape(bytes);
  plan_ = FlatForest::attach(
      bytes.subspan(sizeof(BinaryHeader), FlatForest::payload_size(shape)), shape,
      std::move(keepalive));
  n_classes_ = static_cast<int>(shape.n_classes);
  n_features_ = shape.n_features;
  // Nothing is copied out of the plan: the per-tree view waits in trees()
  // until text save, tree() or the nested walk asks for it.
  view_ = std::make_shared<TreeView>();
}

void RandomForest::adopt_trees(std::vector<DecisionTree> trees) {
  auto view = std::make_shared<TreeView>();
  std::call_once(view->once, [&] { view->trees = std::move(trees); });
  plan_ = FlatForest::build(view->trees, n_classes_, n_features_);
  view_ = std::move(view);
}

const std::vector<DecisionTree>& RandomForest::trees() const {
  if (!view_) throw std::logic_error("RandomForest: not fitted");
  std::call_once(view_->once, [this] {
    view_->trees = trees_from_plan(plan_);
    g_tree_view_materializations.fetch_add(1, std::memory_order_relaxed);
  });
  return view_->trees;
}

std::vector<double> RandomForest::feature_importances() const {
  // Same summation order as averaging the trees' own vectors: trees in
  // index order, one add per feature.
  std::vector<double> mean(n_features_, 0.0);
  const std::span<const double> per_tree = plan_.importances();
  for (std::size_t t = 0; t < tree_count(); ++t) {
    for (std::size_t f = 0; f < mean.size(); ++f) {
      mean[f] += per_tree[t * n_features_ + f];
    }
  }
  const double total = std::accumulate(mean.begin(), mean.end(), 0.0);
  if (total > 0.0) {
    for (double& m : mean) m /= total;
  }
  return mean;
}

}  // namespace fhc::ml
