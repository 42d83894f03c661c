#!/usr/bin/env sh
# Chaos smoke for CI: run the REAL fhc_serve binary with fault injection
# armed through the environment (FHC_FAULT), drive it with a retrying
# fhc_loadgen, and assert the daemon absorbs each injected fault class —
# every request still gets a reply, QUIT still shuts it down cleanly,
# and a deadline sweep sheds instead of hanging. In-process chaos lives
# in `ctest -L chaos`; this script proves the same invariants hold for
# the shipped binaries end to end.
#
# Usage: tools/ci_chaos_smoke.sh [BUILD_DIR]   (default: build)
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

for tool in fhc_train fhc_serve fhc_loadgen fhc_chaos; do
  if [ ! -x "$TOOLS/$tool" ]; then
    echo "error: $TOOLS/$tool not built" >&2
    exit 2
  fi
done

# Small system executables, not the tools: sanitized builds hash at
# ~1 MB/s, and their own binaries are tens of MB.
SED="$(command -v sed)"
GREP="$(command -v grep)"

mkdir -p "$WORK/corpus/ToolSed/1.0" "$WORK/corpus/ToolGrep/1.0"
cp "$SED"  "$WORK/corpus/ToolSed/1.0/a"
cp "$SED"  "$WORK/corpus/ToolSed/1.0/b"
cp "$GREP" "$WORK/corpus/ToolGrep/1.0/a"
cp "$GREP" "$WORK/corpus/ToolGrep/1.0/b"
"$TOOLS/fhc_train" "$WORK/corpus" "$WORK/chaos.fhcb"

# Hard ceiling on the whole smoke: a hung daemon or client must fail the
# job inside CI's patience, not eat the runner. SIGKILL the process
# group; `wait` below then reports the failure.
# cleanup's TERM ends the sleep too: an orphaned sleep would hold the
# script's stdout open, and a pipe reading it, for the full 120 s.
(
  sleep 120 &
  SLEEP_PID=$!
  trap 'kill "$SLEEP_PID" 2>/dev/null; exit 0' TERM
  wait "$SLEEP_PID"
  echo "error: chaos smoke watchdog fired" >&2
  rm -rf "$WORK"  # SIGKILL below skips the EXIT trap
  kill -9 0
) &
WATCHDOG_PID=$!

# One daemon run per fault spec. Each spec targets a different wrapped
# site; nth picks a call deep enough that the fault lands mid-traffic.
run_cell() {
  SPEC="$1"
  SOCK="$WORK/chaos_$$.sock"
  rm -f "$SOCK"
  FHC_FAULT="$SPEC" FHC_FAULT_SEED=7 \
    "$TOOLS/fhc_serve" "$WORK/chaos.fhcb" --unix "$SOCK" \
    --idle-timeout-ms 5000 --read-timeout-ms 5000 &
  SERVE_PID=$!
  # --retries covers both the connect race and the injected faults:
  # transport errors reconnect + re-send, BUSY backs off. --expect-all
  # still demands a prediction for every request.
  if ! "$TOOLS/fhc_loadgen" --unix "$SOCK" \
      --connections 4 --pipeline 4 --requests 24 \
      --retries 50 --backoff-ms 2 --recv-timeout-ms 3000 \
      --expect-all --quit \
      "$SED" "$GREP"; then
    echo "error: loadgen failed under FHC_FAULT=$SPEC" >&2
    kill -9 "$SERVE_PID" 2>/dev/null || true
    exit 1
  fi
  if ! wait "$SERVE_PID"; then
    echo "error: fhc_serve crashed under FHC_FAULT=$SPEC" >&2
    exit 1
  fi
  echo "chaos cell OK: FHC_FAULT=$SPEC"
}

run_cell "read:nth=2"
run_cell "write:nth=2"
run_cell "accept:nth=1"
run_cell "epoll_wait:nth=3"
run_cell "eventfd:nth=2"
run_cell "read:p=0.05:max=6;write:p=0.05:max=6"

# Deadline sweep against a clean daemon: an already-expired (0 ms)
# budget on every frame must shed (DEADLINE_EXCEEDED) rather than hang;
# drop --expect-all since shed replies are the point. The daemon scores
# a request the moment it arrives, so a small positive budget is usually
# met and would not exercise the shed path.
SOCK="$WORK/chaos_ddl.sock"
"$TOOLS/fhc_serve" "$WORK/chaos.fhcb" --unix "$SOCK" \
  --max-queue-delay-ms 2000 &
SERVE_PID=$!
"$TOOLS/fhc_loadgen" --unix "$SOCK" \
  --connections 2 --pipeline 4 --requests 16 \
  --retries 100 --recv-timeout-ms 3000 --deadline-ms 0 --quit \
  "$SED" > "$WORK/deadline.out"
cat "$WORK/deadline.out"
wait "$SERVE_PID"
if grep -q "deadline_exceeded=0 " "$WORK/deadline.out"; then
  echo "error: expired deadlines never shed a request" >&2
  exit 1
fi

# The sweep harness itself: in-process oracle + serving daemon, Nth-call
# sweep with bit-identity verification after every cell.
"$TOOLS/fhc_chaos" "$WORK/chaos.fhcb" "$SED" "$GREP" \
  --nth-max 2 --requests 16 --connections 2 --retries 20 \
  --reload "$WORK/chaos.fhcb"

echo "chaos smoke: OK"
