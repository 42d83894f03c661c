// google-benchmark throughput baselines for fhc::service — per-key
// scoring tasks on the worker pool, single flight and the result cache,
// against the serial predict() loop the CLI used to run per invocation.
//
// The workload models the paper's Slurm-prolog deployment: a node screens
// every job launch, and launches repeat the same few executables (array
// jobs, parameter sweeps), so the reference stream here is 4x-repetitive.
// The pairs to read together (items_per_second):
//
//   BM_PredictUnbatched/32            serial predict() over the stream —
//                                     the pre-service baseline
//   BM_ServiceBatchRepeatDedup/32     cache OFF: one task per distinct
//                                     sample, repeats join it
//   BM_ServiceBatchRepeatStream/32    cache ON: steady-state prolog
//                                     traffic (repeats answered from LRU)
//   BM_ServiceBatchUnique/N           cache OFF, all-distinct stream: the
//                                     pool-parallel win (≈1x on 1 core,
//                                     scales with the pool on real nodes)
//
// And per request (real time): BM_ServiceIsolatedRequest, a lone cold
// submit().get() on an idle service, against BM_PredictSingle, serial
// predict() on the same samples — the service's own overhead on sparse
// prolog traffic, which should be about one task hand-off.
//
// And per CLASSIFY_PATH extraction: BM_ExtractPath, the read + ELF parse
// + three fuzzy hashes of an uncached request (cache_capacity 0),
// against BM_ExtractPathCached, a repeat of the same binary answered
// from the extraction cache (one open + fstat + lookup).
#include <benchmark/benchmark.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstddef>
#include <future>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/classifier.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "service/command_handler.hpp"
#include "service/service.hpp"
#include "support/scratch_dir.hpp"
#include "support/synthetic_hashes.hpp"

namespace {

using namespace fhc;

struct ServiceBenchData {
  std::string model_text;  // FuzzyHashClassifier is move-only: clone via load
  std::vector<core::FeatureHashes> unique_pool;    // 256 distinct samples
  std::vector<core::FeatureHashes> repeat_stream;  // 4x-repetitive prolog mix

  core::FuzzyHashClassifier model() const {
    std::istringstream in(model_text);
    core::FuzzyHashClassifier clf;
    clf.load(in);
    return clf;
  }
};

// 6 classes x 16 training samples of the shared synthetic-hash corpus
// (the same-class edit-distance / cross-class gate mix of the real
// pipeline), 40 trees, 256 distinct queries.
const ServiceBenchData& bench_data() {
  static const ServiceBenchData data = [] {
    testsupport::SyntheticHashesParams params;
    params.classes = 6;
    params.per_class = 16;
    params.queries = 256;
    params.base_seed = 500;
    params.mutation_seed = 29;
    const testsupport::SyntheticHashes corpus =
        testsupport::make_synthetic_hashes(params);

    core::ClassifierConfig config;
    config.forest.n_estimators = 40;
    config.forest.seed = 5;
    config.confidence_threshold = 0.3;
    core::FuzzyHashClassifier clf;
    clf.fit(corpus.train, corpus.labels, {"A", "B", "C", "D", "E", "F"}, config);

    ServiceBenchData out;
    std::ostringstream text;
    clf.save(text);
    out.model_text = text.str();
    out.unique_pool = corpus.queries;

    // Prolog-shaped stream: windows of any size >= 4 see each distinct
    // binary 4 times (array jobs resubmitting the same executable).
    for (int i = 0; i < 128; ++i) {
      out.repeat_stream.push_back(out.unique_pool[static_cast<std::size_t>(i / 4) % 8]);
    }
    return out;
  }();
  return data;
}

std::vector<core::FeatureHashes> window(const std::vector<core::FeatureHashes>& pool,
                                        std::size_t& offset, std::size_t n) {
  std::vector<core::FeatureHashes> out;
  out.reserve(n);
  for (std::size_t i = 0; i < n; ++i) out.push_back(pool[(offset + i) % pool.size()]);
  offset = (offset + n) % pool.size();
  return out;
}

service::ServiceConfig bench_config(std::size_t cache) {
  service::ServiceConfig config;
  config.cache_capacity = cache;
  return config;
}

/// Baseline: what every prolog invocation paid before the service — a
/// serial predict() per sample, no batching, no dedup, no cache.
void BM_PredictUnbatched(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  const core::FuzzyHashClassifier clf = data.model();
  const auto batch = static_cast<std::size_t>(state.range(0));
  std::size_t offset = 0;
  for (auto _ : state) {
    const auto samples = window(data.repeat_stream, offset, batch);
    for (const core::FeatureHashes& sample : samples) {
      benchmark::DoNotOptimize(clf.predict(sample));
    }
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_PredictUnbatched)->Arg(32)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Same stream, cache disabled: the win is single flight (repeats join
/// their sample's task) plus the pool's parallel tasks alone.
void BM_ServiceBatchRepeatDedup(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  const auto batch = static_cast<std::size_t>(state.range(0));
  service::ClassificationService svc(data.model(), bench_config(/*cache=*/0));
  std::size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.classify_batch(window(data.repeat_stream, offset, batch)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ServiceBatchRepeatDedup)->Arg(32)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Same stream with the LRU on: steady-state prolog traffic, where repeat
/// binaries skip scoring entirely.
void BM_ServiceBatchRepeatStream(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  const auto batch = static_cast<std::size_t>(state.range(0));
  service::ClassificationService svc(data.model(), bench_config(4096));
  std::size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.classify_batch(window(data.repeat_stream, offset, batch)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ServiceBatchRepeatStream)
    ->Arg(8)
    ->Arg(32)
    ->Arg(128)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

/// All-distinct stream, cache off: isolates the parallel scoring tasks
/// (the multi-core win; on a single-core host this tracks the baseline).
void BM_ServiceBatchUnique(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  const auto batch = static_cast<std::size_t>(state.range(0));
  service::ClassificationService svc(data.model(), bench_config(/*cache=*/0));
  std::size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.classify_batch(window(data.unique_pool, offset, batch)));
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(batch));
}
BENCHMARK(BM_ServiceBatchUnique)->Arg(8)->Arg(32)->UseRealTime()->Unit(benchmark::kMillisecond);

/// Serial predict() on one distinct sample at a time: the floor for a
/// lone request (pairs with BM_ServiceIsolatedRequest).
void BM_PredictSingle(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  const core::FuzzyHashClassifier clf = data.model();
  std::size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(clf.predict(data.unique_pool[offset]));
    offset = (offset + 1) % data.unique_pool.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_PredictSingle)->UseRealTime()->Unit(benchmark::kMicrosecond);

/// One cold request at a time on an idle service, cache off: submit ->
/// scoring task -> callback -> future, with no other request in sight
/// (sparse prolog traffic).
void BM_ServiceIsolatedRequest(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  service::ClassificationService svc(data.model(), bench_config(/*cache=*/0));
  std::size_t offset = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.submit(data.unique_pool[offset]).get());
    offset = (offset + 1) % data.unique_pool.size();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceIsolatedRequest)->UseRealTime()->Unit(benchmark::kMicrosecond);

/// Pure cache path: one hot binary resubmitted (array-job steady state).
void BM_ServiceCacheHit(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  service::ClassificationService svc(data.model(), bench_config(4096));
  benchmark::DoNotOptimize(svc.submit(data.unique_pool[0]).get());  // warm
  for (auto _ : state) {
    benchmark::DoNotOptimize(svc.submit(data.unique_pool[0]).get());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ServiceCacheHit)->UseRealTime();

// ---- CLASSIFY_PATH extraction cache ----------------------------------------

/// A corpus ELF on disk, old enough to be cached: written once, then one
/// wait of the racy window.
const std::string& settled_elf() {
  static const testsupport::ScratchDir dir("bench_extract");
  static const std::string path = [] {
    std::string elf = testsupport::write_corpus_elfs(dir, 1).front();
    std::this_thread::sleep_for(service::CommandHandler::kRacyWindow +
                                std::chrono::milliseconds(100));
    return elf;
  }();
  return path;
}

/// One binary extracted over and over through CommandHandler, after two
/// warm-up extractions (the doorkeeper records it, then it is inserted).
void run_extract_path(benchmark::State& state, std::size_t cache) {
  const std::string& path = settled_elf();
  service::ClassificationService svc(bench_data().model(), bench_config(cache));
  service::CommandHandler handler(svc);
  core::FeatureHashes sample;
  for (int warm = 0; warm < 2; ++warm) benchmark::DoNotOptimize(handler.extract_path(path, sample));
  for (auto _ : state) {
    const std::string error = handler.extract_path(path, sample);
    if (!error.empty()) {
      state.SkipWithError(error.c_str());
      break;
    }
    benchmark::DoNotOptimize(sample);
  }
  if (cache > 0 && handler.extract_cache_hits() == 0) {
    state.SkipWithError("the extraction cache never hit");
  }
  state.SetItemsProcessed(state.iterations());
}

void BM_ExtractPath(benchmark::State& state) { run_extract_path(state, /*cache=*/0); }
BENCHMARK(BM_ExtractPath)->Unit(benchmark::kMicrosecond);

void BM_ExtractPathCached(benchmark::State& state) { run_extract_path(state, 4096); }
BENCHMARK(BM_ExtractPathCached)->Unit(benchmark::kMicrosecond);

// ---- socket front-end (PR 8) ----------------------------------------------
// The pair to read together (items_per_second): the same steady-state
// stream submitted in-process vs through the epoll socket server's wire
// protocol — the delta is the framing + syscall + event-loop cost per
// request. BM_ServeSocketPipelined's p50/p99 counters are the
// client-observed per-request latency under N concurrent pipelined
// connections.

constexpr std::size_t kWireRequestsPerIteration = 256;

/// In-process baseline for the socket pair: direct submit() futures over
/// the steady-state stream (cache on — the socket side runs the same
/// config, so the delta isolates the wire).
void BM_ServiceSubmitInProcess(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  service::ClassificationService svc(data.model(), bench_config(4096));
  // Warm the LRU: steady state is the cache-served stream, so the pair
  // isolates the wire overhead, not first-pass scoring.
  for (const core::FeatureHashes& sample : data.unique_pool) {
    benchmark::DoNotOptimize(svc.classify_batch({sample}));
  }
  std::size_t offset = 0;
  for (auto _ : state) {
    std::vector<std::future<core::Prediction>> futures;
    futures.reserve(kWireRequestsPerIteration);
    for (std::size_t i = 0; i < kWireRequestsPerIteration; ++i) {
      futures.push_back(svc.submit(data.unique_pool[offset]));
      offset = (offset + 1) % data.unique_pool.size();
    }
    for (std::future<core::Prediction>& future : futures) {
      benchmark::DoNotOptimize(future.get());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(kWireRequestsPerIteration));
}
BENCHMARK(BM_ServiceSubmitInProcess)->UseRealTime()->Unit(benchmark::kMillisecond);

/// The same stream through the socket server: N pipelined connections on
/// a Unix socket, CLASSIFY_DIGESTS frames, replies decoded client-side.
void BM_ServeSocketPipelined(benchmark::State& state) {
  const ServiceBenchData& data = bench_data();
  const auto connections = static_cast<std::size_t>(state.range(0));

  service::ClassificationService svc(data.model(), bench_config(4096));
  // Same warm-LRU steady state as BM_ServiceSubmitInProcess.
  for (const core::FeatureHashes& sample : data.unique_pool) {
    benchmark::DoNotOptimize(svc.classify_batch({sample}));
  }
  service::CommandHandler handler(svc);
  net::ServerConfig server_config;
  server_config.unix_path =
      "/tmp/fhc_bench_" + std::to_string(::getpid()) + ".sock";
  net::SocketServer server(handler, server_config);
  server.start();

  std::vector<std::string> frames;
  frames.reserve(data.unique_pool.size());
  for (const core::FeatureHashes& sample : data.unique_pool) {
    std::vector<std::string> digests;
    for (std::size_t i = 0; i < sample.channel_count(); ++i) {
      digests.push_back(sample.channel(i).to_string());
    }
    std::string frame;
    net::encode_classify_digests(frame, digests);
    frames.push_back(std::move(frame));
  }

  net::LoadOptions options;
  options.endpoint.unix_path = server_config.unix_path;
  options.connections = connections;
  options.pipeline = 8;
  options.requests =
      std::max<std::size_t>(kWireRequestsPerIteration / connections, 1);
  options.connect_retries = 20;

  net::LoadResult last;
  for (auto _ : state) {
    last = net::run_load(options, frames);
    if (!last.ok()) {
      state.SkipWithError(last.failure.c_str());
      break;
    }
  }
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(options.requests * connections));
  state.counters["p50_ms"] = last.p50_ms;
  state.counters["p99_ms"] = last.p99_ms;
  state.counters["max_ms"] = last.max_ms;

  server.stop();
  server.join();
}
BENCHMARK(BM_ServeSocketPipelined)
    ->Arg(1)
    ->Arg(8)
    ->Arg(64)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace
