#!/usr/bin/env sh
# Fuzz smoke for CI: replay every checked-in corpus through its fuzz
# target, then hammer each target with deterministic mutations of the
# corpus (the replay driver's --mutate mode — see tests/fuzz/). On the
# sanitizer job this catches the same shallow memory/UB crash classes a
# short libFuzzer run finds, without needing Clang. Under a Clang
# -DFHC_FUZZ=ON build the targets are real libFuzzer binaries; drive
# them directly (e.g. `fuzz_x -runs=100000 tests/fuzz/corpus/fuzz_x`)
# instead of with this script.
#
# Usage: tools/ci_fuzz_smoke.sh [BUILD_DIR] [MUTATIONS_PER_INPUT]
set -eu

BUILD_DIR="${1:-build}"
MUTATIONS="${2:-200}"
CORPUS_ROOT="$(dirname "$0")/../tests/fuzz/corpus"

for target in fuzz_parse_digest fuzz_elf_reader fuzz_model_load \
              fuzz_net_frame fuzz_trace fuzz_row_differential \
              fuzz_fuzzy_hash fuzz_strings; do
  bin="$BUILD_DIR/tests/fuzz/$target"
  if [ ! -x "$bin" ]; then
    echo "error: $bin not built (configure with -DFHC_FUZZ=ON)" >&2
    exit 2
  fi
  echo "== $target"
  "$bin" --mutate "$MUTATIONS" --seed 7 "$CORPUS_ROOT/$target"
done
echo "fuzz smoke: OK (all targets survived corpus + mutations)"
