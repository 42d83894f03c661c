#!/usr/bin/env sh
# End-to-end socket smoke for CI: train a tiny model from two system
# executables (a ready-made two-class corpus — no fixtures needed), start
# fhc_serve on a Unix-domain socket, drive it with fhc_loadgen over
# pipelined connections, and assert (a) every request got a prediction
# reply and (b) the QUIT frame shut the daemon down with exit 0.
# With the daemon up it also checks the prolog client: `fhc_classify
# SOCKET FILE...` prints byte-for-byte what `fhc_classify MODEL FILE...`
# prints, and both tools keep their exit-code contracts. fhc_inspect
# must pass the trained model and refuse retired binary formats.
#
# Usage: tools/ci_socket_smoke.sh [BUILD_DIR]   (default: build)
set -eu

BUILD_DIR="${1:-build}"
TOOLS="$BUILD_DIR/tools"
WORK="$(mktemp -d)"
WATCHDOG_PID=""
cleanup() {
  [ -n "$WATCHDOG_PID" ] && kill "$WATCHDOG_PID" 2>/dev/null || true
  rm -rf "$WORK"
}
trap cleanup EXIT

# expect_exit CODE CMD... — run CMD (output discarded), fail unless it
# exits with CODE.
expect_exit() {
  want="$1"
  shift
  got=0
  "$@" > /dev/null 2>&1 || got=$?
  if [ "$got" -ne "$want" ]; then
    echo "error: '$*' exited $got, expected $want" >&2
    exit 1
  fi
}

# Hard ceiling: a daemon that never answers QUIT (or a loadgen stuck on
# a dead socket) must fail the step, not hang the runner. SIGKILL the
# process group; the stuck `wait` below then surfaces the failure.
# cleanup's TERM ends the sleep too: an orphaned sleep would hold the
# script's stdout open, and a pipe reading it, for the full 120 s.
(
  sleep 120 &
  SLEEP_PID=$!
  trap 'kill "$SLEEP_PID" 2>/dev/null; exit 0' TERM
  wait "$SLEEP_PID"
  echo "error: socket smoke watchdog fired" >&2
  rm -rf "$WORK"  # SIGKILL below skips the EXIT trap
  kill -9 0
) &
WATCHDOG_PID=$!

for tool in fhc_train fhc_serve fhc_loadgen fhc_classify fhc_inspect; do
  if [ ! -x "$TOOLS/$tool" ]; then
    echo "error: $TOOLS/$tool not built" >&2
    exit 2
  fi
done

# Small system executables, not the tools: sanitized builds hash at
# ~1 MB/s, and their own binaries are tens of MB. CAT is foreign traffic.
SED="$(command -v sed)"
GREP="$(command -v grep)"
CAT="$(command -v cat)"

# Corpus layout is ROOT/<Class>/<version>/<executable>; two binaries per
# class so leave-one-out style splits inside training stay meaningful.
mkdir -p "$WORK/corpus/ToolSed/1.0" "$WORK/corpus/ToolGrep/1.0"
cp "$SED"  "$WORK/corpus/ToolSed/1.0/a"
cp "$SED"  "$WORK/corpus/ToolSed/1.0/b"
cp "$GREP" "$WORK/corpus/ToolGrep/1.0/a"
cp "$GREP" "$WORK/corpus/ToolGrep/1.0/b"

# --calibrate fits an open-set rejection threshold on a held-out split;
# fhc_inspect then acts as the model fsck (non-zero on a malformed or
# missing calibration block).
"$TOOLS/fhc_train" --calibrate "$WORK/corpus" "$WORK/smoke.fhcb"
# No pipe: set -e must see fhc_inspect's own exit status (model fsck).
"$TOOLS/fhc_inspect" "$WORK/smoke.fhcb" > "$WORK/inspect.out"
cat "$WORK/inspect.out"
grep -q "calibration: reject below" "$WORK/inspect.out" || {
  echo "error: calibrated model missing calibration block" >&2
  exit 1
}
# Retired binary versions are refused by magic alone, naming the fix.
for retired in FHCMDLB1 FHCMDLB2; do
  { printf '%s' "$retired"; head -c 56 /dev/zero; } > "$WORK/$retired.fhcb"
  expect_exit 1 "$TOOLS/fhc_inspect" "$WORK/$retired.fhcb"
done

SOCK="$WORK/ci.sock"
"$TOOLS/fhc_serve" "$WORK/smoke.fhcb" --unix "$SOCK" &
SERVE_PID=$!

# --retries inside fhc_loadgen handles the startup race (connect retries
# with backoff), so no fragile sleep is needed here. --expect-all turns
# any BUSY/ERROR reply into a non-zero exit; --quit sends the daemon its
# shutdown frame after the run.
"$TOOLS/fhc_loadgen" --unix "$SOCK" \
  --connections 8 --pipeline 4 --requests 32 --retries 100 \
  --expect-all --stats \
  "$CAT" "$SED"

# The prolog client against the live daemon: the same lines as the local
# model, one CLASSIFY_PATH per file. Relative paths are resolved by the
# client, not by the daemon's working directory.
"$TOOLS/fhc_classify" "$WORK/smoke.fhcb" "$GREP" "$SED" > "$WORK/classify_model.out"
"$TOOLS/fhc_classify" "$SOCK" "$GREP" "$SED" > "$WORK/classify_socket.out"
cmp "$WORK/classify_model.out" "$WORK/classify_socket.out"
cat "$WORK/classify_socket.out"
expect_exit 1 "$TOOLS/fhc_classify" "$SOCK" "$WORK/no-such-binary"
expect_exit 2 "$TOOLS/fhc_classify" --unknown-threshold 0.5 "$SOCK" "$SED"

# A socket file nobody listens on (its daemon was killed) is an
# unavailable classifier: exit 2.
DEAD="$WORK/dead.sock"
"$TOOLS/fhc_serve" "$WORK/smoke.fhcb" --unix "$DEAD" 2> /dev/null &
DEAD_PID=$!
while [ ! -S "$DEAD" ]; do sleep 0.1; done
kill -9 "$DEAD_PID"
wait "$DEAD_PID" 2> /dev/null || true
expect_exit 2 "$TOOLS/fhc_classify" "$DEAD" "$SED"

# Usage errors: a daemon needs a listener; the open-set threshold must
# be a number in [0,1] in both tools; a timeout above INT_MAX ms is
# refused rather than wrapped; fhc_train knows no --binary.
expect_exit 2 "$TOOLS/fhc_train" --binary "$WORK/corpus" "$WORK/retired.fhcb"
expect_exit 2 "$TOOLS/fhc_serve" "$WORK/smoke.fhcb"
expect_exit 2 "$TOOLS/fhc_serve" "$WORK/smoke.fhcb" --unix "$WORK/nan.sock" \
  --unknown-threshold nan
expect_exit 2 "$TOOLS/fhc_serve" "$WORK/smoke.fhcb" --unix "$WORK/big.sock" \
  --idle-timeout-ms 4294967396
expect_exit 2 "$TOOLS/fhc_serve" "$WORK/smoke.fhcb" --unix "$WORK/big.sock" \
  --read-timeout-ms 2147483648
expect_exit 2 "$TOOLS/fhc_classify" --unknown-threshold nan "$WORK/smoke.fhcb" \
  "$SED"
expect_exit 2 "$TOOLS/fhc_classify" --unknown-threshold abc "$WORK/smoke.fhcb" \
  "$SED"

# Open-set assertion: binaries the calibrated model was trained on must
# come back as known classes (--expect-known fails on any PREDICTION
# carrying the unknown flag). Only corpus members qualify — CAT above is
# deliberately foreign traffic and may legitimately be flagged.
"$TOOLS/fhc_loadgen" --unix "$SOCK" \
  --connections 2 --pipeline 2 --requests 8 --retries 100 \
  --expect-all --expect-known --quit \
  "$GREP" "$SED"

wait "$SERVE_PID"
echo "socket e2e smoke: OK (clean daemon exit)"
