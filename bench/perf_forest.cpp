// google-benchmark microbenchmarks for the ML substrate at the shapes the
// pipeline actually uses (n ~ thousands, d = 3 * 73 = 219, K = 73).
#include <benchmark/benchmark.h>

#include <cstdint>
#include <cstring>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "core/classifier.hpp"
#include "ml/class_weight.hpp"
#include "ml/flat_forest.hpp"
#include "ml/knn.hpp"
#include "ml/linear_svm.hpp"
#include "ml/random_forest.hpp"
#include "support/synthetic_hashes.hpp"
#include "util/rng.hpp"
#include "util/thread_pool.hpp"

namespace {

using namespace fhc;

struct Synthetic {
  ml::Matrix x;
  std::vector<int> y;
  int classes;
};

/// Pipeline-shaped data: per class, the own-class column block is high and
/// the rest low — mimics the similarity feature matrix.
Synthetic make_data(std::size_t n, int classes, std::size_t features) {
  fhc::util::Rng rng(42);
  Synthetic data{ml::Matrix(n, features), std::vector<int>(n), classes};
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.next_below(static_cast<std::uint64_t>(classes)));
    data.y[i] = cls;
    for (std::size_t f = 0; f < features; ++f) {
      const bool own = f % static_cast<std::size_t>(classes) ==
                       static_cast<std::size_t>(cls);
      const double base = own ? 70.0 : 8.0;
      data.x.at(i, f) = static_cast<float>(base + rng.gaussian() * 6.0);
    }
  }
  return data;
}

void BM_ForestFit(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Synthetic data = make_data(n, 73, 219);
  const auto weights = ml::balanced_sample_weights(data.y);
  ml::ForestParams params;
  params.n_estimators = 50;
  for (auto _ : state) {
    ml::RandomForest forest;
    forest.fit(data.x, data.y, data.classes, weights, params);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFit)->Arg(512)->Arg(1024)->Arg(2688)->Unit(benchmark::kMillisecond);

/// Train-time pair for BM_ForestFit: the serial reference path (1-thread
/// pool) at the middle shape. Trees are independent and each derives its
/// RNG stream from (forest seed, tree index), so this trains the
/// bit-identical ensemble — the ratio to BM_ForestFit/1024 is the pool
/// speedup on this host.
void BM_ForestFitSerial(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const Synthetic data = make_data(n, 73, 219);
  const auto weights = ml::balanced_sample_weights(data.y);
  ml::ForestParams params;
  params.n_estimators = 50;
  fhc::util::ThreadPool serial_pool(1);
  for (auto _ : state) {
    ml::RandomForest forest;
    forest.fit(data.x, data.y, data.classes, weights, params, &serial_pool);
    benchmark::DoNotOptimize(forest.tree_count());
  }
}
BENCHMARK(BM_ForestFitSerial)->Arg(1024)->Unit(benchmark::kMillisecond);

/// Shared fitted forest for the predict/load benches — pipeline shape
/// (73 classes, 219 features), 50 trees over 1024 rows.
const ml::RandomForest& predict_forest() {
  static const ml::RandomForest forest = [] {
    const Synthetic data = make_data(1024, 73, 219);
    ml::RandomForest f;
    ml::ForestParams params;
    params.n_estimators = 50;
    f.fit(data.x, data.y, data.classes, {}, params);
    return f;
  }();
  return forest;
}

void BM_ForestPredictProba(benchmark::State& state) {
  const Synthetic data = make_data(1024, 73, 219);
  const ml::RandomForest& forest = predict_forest();
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(forest.predict_proba(data.x.row(row)));
    row = (row + 1) % data.x.rows();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ForestPredictProba);

/// The FlatForest block walk at batch sizes 1/8/64 — compare
/// items_per_second against the per-row BM_ForestPredictProba baseline.
/// Tree-major blocking keeps each tree's nodes hot in L1/L2 across the
/// whole block instead of re-missing the ensemble per row.
void BM_ForestPredictBlock(benchmark::State& state) {
  const Synthetic data = make_data(1024, 73, 219);
  const ml::RandomForest& forest = predict_forest();
  const auto block = static_cast<std::size_t>(state.range(0));
  ml::Matrix out(data.x.rows(), 73);
  std::size_t row = 0;
  for (auto _ : state) {
    forest.plan().predict_proba_block(data.x, row, row + block, out);
    benchmark::DoNotOptimize(out.row(row).data());
    row = (row + block) % data.x.rows();
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(block));
}
BENCHMARK(BM_ForestPredictBlock)->Arg(1)->Arg(8)->Arg(64);

/// Model (re)load pair: the text parser vs the binary SoA image — the
/// RELOAD path cost a resident fhc_serve pays per model swap. The binary
/// loader copies no node data (the plan attaches to the image) and
/// parses no floats.
void BM_ModelLoadText(benchmark::State& state) {
  std::ostringstream text;
  predict_forest().save(text);
  const std::string image = text.str();
  for (auto _ : state) {
    ml::RandomForest loaded;
    std::istringstream in(image);
    loaded.load(in);
    benchmark::DoNotOptimize(loaded.tree_count());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ModelLoadText)->Unit(benchmark::kMillisecond);

void BM_ModelLoadBinary(benchmark::State& state) {
  std::ostringstream binary(std::ios::binary);
  predict_forest().save_binary(binary);
  const std::string image = binary.str();
  for (auto _ : state) {
    ml::RandomForest loaded;
    std::istringstream in(image, std::ios::binary);
    loaded.load_binary(in);
    benchmark::DoNotOptimize(loaded.tree_count());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ModelLoadBinary)->Unit(benchmark::kMillisecond);

/// Whole-model attach at the paper's class count (K = 73): the binary
/// sectioned container checksums the mapped bytes and attaches the index
/// pools and the forest in place, building no per-tree view. per_class
/// (the Arg) scales the reference corpus; attach stays O(bytes), so /12
/// vs /48 grows only with the file.
const core::FuzzyHashClassifier& bench_classifier(int per_class) {
  static std::map<int, core::FuzzyHashClassifier> cache;
  auto it = cache.find(per_class);
  if (it == cache.end()) {
    testsupport::SyntheticHashesParams params;
    params.classes = 73;
    params.per_class = per_class;
    params.queries = 0;
    const testsupport::SyntheticHashes data =
        testsupport::make_synthetic_hashes(params);
    std::vector<std::string> names;
    for (int c = 0; c < params.classes; ++c) {
      std::string name = std::to_string(c);
      name.insert(name.begin(), 'C');
      names.push_back(std::move(name));
    }
    core::ClassifierConfig config;
    config.forest.n_estimators = 8;  // measures index attach, not the forest
    core::FuzzyHashClassifier clf;
    clf.fit(data.train, data.labels, std::move(names), config);
    it = cache.emplace(per_class, std::move(clf)).first;
  }
  return it->second;
}

std::vector<std::byte> model_image(int per_class) {
  std::ostringstream out(std::ios::binary);
  bench_classifier(per_class).save_binary(out);
  const std::string image = out.str();
  std::vector<std::byte> bytes(image.size());
  std::memcpy(bytes.data(), image.data(), image.size());
  return bytes;
}

void BM_ModelAttach(benchmark::State& state) {
  const std::vector<std::byte> image =
      model_image(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    core::FuzzyHashClassifier loaded;
    loaded.load_binary({image.data(), image.size()}, nullptr);
    benchmark::DoNotOptimize(loaded.row_width());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(image.size()));
}
BENCHMARK(BM_ModelAttach)->Arg(12)->Arg(48)->Unit(benchmark::kMillisecond);

void BM_KnnPredict(benchmark::State& state) {
  const Synthetic data = make_data(2688, 73, 219);
  ml::KnnClassifier knn;
  knn.fit(data.x, data.y, data.classes, ml::KnnParams{});
  std::size_t row = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(knn.predict_proba(data.x.row(row)));
    row = (row + 1) % data.x.rows();
  }
}
BENCHMARK(BM_KnnPredict)->Unit(benchmark::kMicrosecond);

void BM_SvmFit(benchmark::State& state) {
  const Synthetic data = make_data(1024, 16, 219);
  const auto weights = ml::balanced_sample_weights(data.y);
  ml::SvmParams params;
  params.epochs = 5;
  for (auto _ : state) {
    ml::LinearSvm svm;
    svm.fit(data.x, data.y, data.classes, weights, params);
    benchmark::DoNotOptimize(svm.n_classes());
  }
}
BENCHMARK(BM_SvmFit)->Unit(benchmark::kMillisecond);

}  // namespace
