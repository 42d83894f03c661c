#!/usr/bin/env sh
# Run the perf baselines and emit machine-readable results:
#   BENCH_perf_ssdeep.json, BENCH_perf_forest.json and
#   BENCH_perf_service.json in the current directory (google-benchmark
#   JSON format).
#
# Usage: tools/run_benches.sh [BUILD_DIR]   (default: build)
#
# Builds the targets first if the build dir is configured, so a fresh
# checkout only needs `cmake -B build -S .` before calling this.
set -eu

BUILD_DIR="${1:-build}"

if [ ! -f "$BUILD_DIR/CMakeCache.txt" ]; then
  echo "error: '$BUILD_DIR' is not a configured build dir (run: cmake -B $BUILD_DIR -S .)" >&2
  exit 2
fi

cmake --build "$BUILD_DIR" --target perf_ssdeep perf_forest perf_service

for name in perf_ssdeep perf_forest perf_service; do
  echo "== $name -> BENCH_${name}.json"
  "$BUILD_DIR/bench/$name" \
    --benchmark_out="BENCH_${name}.json" \
    --benchmark_out_format=json \
    --benchmark_counters_tabular=true
done

# The perf trajectory tracks the prepared-digest path from PR 2 on: fail
# loudly if the prepared-vs-raw compare pair or the feature-matrix bench
# ever drop out of the ssdeep baseline. PR 5 on: the GramIndex
# candidate-driven fill must keep its pair against the all-pairs oracle
# over raw digests (BM_FeatureRowIndexed vs BM_FeatureRowAllPairs). The
# runtime channel — trace fingerprint+hash cost, and the three-vs-four
# channel row-fill pair (BM_FeatureRowIndexed vs
# BM_FeatureRowIndexedFourChannel). The edit-distance pairs: each DP
# oracle (BM_{DamerauOsa,WeightedLevenshtein}64) against its BitParallel
# twin, the kernel the scoring path runs. The hasher pair: the byte-lane
# engine (BM_FuzzyHash) against the per-level reference engine it
# replaced, at two sizes, plus the rolling hash alone (its ceiling), and
# the same pair on a prolog request's three hashes of corpus images
# (BM_FuzzyHashRequest vs BM_FuzzyHashRequestReference).
# The strings-scan pair: the 64-byte bitmask scan (BM_StringsText)
# against the byte-at-a-time reference loop it replaced, on corpus images.
# The pregated pair: a probe candidate scored from its hit bits with
# prebuilt masks (BM_ComparePregatedRelatedDigests) against the gated
# compare_prepared on the same pair.
# The four-lane pairs: each four-lane core
# (BM_{DamerauOsa,WeightedLevenshtein}64BitParallelFourLanes) against its
# one-lane BitParallel bench on the same pair, compared per item (one
# item is one scored pair). BM_FeatureRowManyCandidates is a fill at
# prolog shape (hundreds of candidates per row on perfbench's corpus),
# where the four-lane fill shows; compare it against its parent commit.
for required in \
    BM_CompareUnrelatedDigests BM_ComparePreparedUnrelatedDigests \
    BM_CompareRelatedDigests BM_ComparePreparedRelatedDigests \
    BM_ComparePregatedRelatedDigests \
    BM_PrepareDigest BM_FeatureRowAllPairs BM_FeatureRowIndexed \
    BM_RuntimeTraceHash \
    BM_FeatureRowIndexedFourChannel \
    BM_DamerauOsa64 BM_DamerauOsa64BitParallel \
    BM_WeightedLevenshtein64 BM_WeightedLevenshtein64BitParallel \
    BM_DamerauOsa64BitParallelFourLanes BM_WeightedLevenshtein64BitParallelFourLanes \
    BM_FeatureRowManyCandidates \
    BM_FuzzyHash/262144 BM_FuzzyHashReference/262144 \
    BM_FuzzyHash/2097152 BM_FuzzyHashReference/2097152 BM_RollingHash \
    BM_FuzzyHashRequest BM_FuzzyHashRequestReference \
    BM_StringsText BM_StringsTextReference; do
  if ! grep -q "\"$required\"" BENCH_perf_ssdeep.json; then
    echo "error: BENCH_perf_ssdeep.json is missing $required" >&2
    exit 1
  fi
done

# PR 3 on: the batched-vs-unbatched service throughput pair and the
# serial-vs-parallel forest train-time pair must stay in the baselines.
#
# PR 8 on: the socket front-end pair — the in-process submit baseline vs
# the epoll wire path at 1/8/64 pipelined connections (p50/p99 counters
# are the client-observed per-request latency).
#
# The lone-request pair: a cold submit().get() on an idle service vs
# serial predict() on the same samples.
#
# The extraction pair: an uncached CLASSIFY_PATH extraction vs a repeat
# answered from CommandHandler's extraction cache.
for required in \
    BM_PredictUnbatched/32/real_time BM_ServiceBatchRepeatDedup/32/real_time \
    BM_ServiceBatchRepeatStream/32/real_time BM_ServiceBatchUnique/32/real_time \
    BM_PredictSingle/real_time BM_ServiceIsolatedRequest/real_time \
    BM_ServiceCacheHit/real_time \
    BM_ServiceSubmitInProcess/real_time BM_ServeSocketPipelined/1/real_time \
    BM_ServeSocketPipelined/8/real_time BM_ServeSocketPipelined/64/real_time \
    BM_ExtractPath BM_ExtractPathCached; do
  if ! grep -q "\"$required\"" BENCH_perf_service.json; then
    echo "error: BENCH_perf_service.json is missing $required" >&2
    exit 1
  fi
done
# The FlatForest block-inference sweep (sparse leaf walk) against the
# per-row baseline, the text-vs-binary forest load pair, and the
# whole-model v2 attach at both corpus scales must stay in the baselines.
for required in \
    BM_ForestFit/1024 BM_ForestFitSerial/1024 \
    BM_ForestPredictProba BM_ForestPredictBlock/1 BM_ForestPredictBlock/8 \
    BM_ForestPredictBlock/64 BM_ModelLoadText BM_ModelLoadBinary \
    BM_ModelAttach/12 BM_ModelAttach/48; do
  if ! grep -q "\"$required\"" BENCH_perf_forest.json; then
    echo "error: BENCH_perf_forest.json is missing $required" >&2
    exit 1
  fi
done
