#!/usr/bin/env bash
#
# Chaos gauntlet for the process-isolated shard supervisor.
#
# Runs the fig13 sweep under every failure the supervisor claims to
# survive — worker crashes, torn segment tails, hung workers, a SIGKILL
# of the whole run followed by --resume, and a graceful SIGTERM — and
# requires each scenario's stdout to be byte-identical to a clean
# serial (--jobs=1) run. That is the supervisor's core invariant:
# fault tolerance may never change a result, only recompute it.
#
# The crash scenarios additionally arm the live status plane
# (--obs-dir): the final status.json there must reflect the injected
# faults — retries for transient crashes, quarantines for persistent
# ones — while the sweep still completes.
#
# Usage: scripts/chaos_check.sh [build-dir]   (default: build)

set -euo pipefail

BUILD_DIR=${1:-build}
BENCH="$BUILD_DIR/bench/bench_fig13_dynamic"
if [[ ! -x $BENCH ]]; then
    echo "error: $BENCH not built" >&2
    exit 2
fi

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

COMMON=(--quick --scale=0.02 --seed=1)
# Fast retries: the gauntlet injects faults, it should not sit in backoff.
export CAPART_SHARD_BACKOFF_MS=50

fail=0

check_identical() {
    local name=$1
    if cmp -s "$WORK/golden.txt" "$WORK/$name.txt"; then
        echo "ok: $name matches golden output"
    else
        echo "FAIL: $name diverges from golden output" >&2
        diff -u "$WORK/golden.txt" "$WORK/$name.txt" | head -40 >&2 || true
        fail=1
    fi
}

sharded() {
    local name=$1
    shift
    "$BENCH" "${COMMON[@]}" --shards=3 --ledger-dir="$WORK/$name.shards" \
        "$@" > "$WORK/$name.txt"
}

# check_status FILE PYTHON-EXPR: assert the expression holds over the
# decoded status.json (bound to `s`).
check_status() {
    local file=$1 expr=$2
    if python3 - "$file" "$expr" <<'EOF'
import json, sys
s = json.load(open(sys.argv[1]))
sys.exit(0 if eval(sys.argv[2]) else 1)
EOF
    then
        echo "ok: $(basename "$file") satisfies: $expr"
    else
        echo "FAIL: $(basename "$file") violates: $expr" >&2
        fail=1
    fi
}

echo "== golden: serial run"
"$BENCH" "${COMMON[@]}" --jobs=1 > "$WORK/golden.txt"

echo "== clean sharded run"
sharded clean
check_identical clean

echo "== worker crashes (every 5th point dies on its first attempt)"
(
    export CAPART_CHAOS_CRASH_MOD=5
    sharded crash --obs-dir="$WORK/crash.obs"
)
check_identical crash
# The status plane watched the crashes: retries recorded, nothing
# quarantined, sweep complete — and recording it changed nothing
# (check_identical above proves the results stayed byte-identical).
check_status "$WORK/crash.obs/status.json" \
    "s['state'] == 'complete' and s['retries'] > 0 \
     and s['points_quarantined'] == 0 \
     and s['points_done'] == s['points_total'] \
     and sum(sh['crashes'] for sh in s['shard_states']) > 0"

echo "== persistent crashes (every 5th point dies on EVERY attempt)"
if ! (
    export CAPART_CHAOS_CRASH_MOD=5 CAPART_CHAOS_CRASH_ATTEMPTS=99
    sharded quarantine --obs-dir="$WORK/quarantine.obs"
); then
    echo "FAIL: quarantine scenario aborted the sweep" >&2
    fail=1
fi
# Quarantined points are holes, so stdout legitimately diverges from
# golden here; the contract is that the sweep completes and the final
# snapshot accounts for every point as done or quarantined.
check_status "$WORK/quarantine.obs/status.json" \
    "s['state'] == 'complete' and s['points_quarantined'] > 0 \
     and s['points_done'] + s['points_quarantined'] == s['points_total'] \
     and sum(sh['points_quarantined'] for sh in s['shard_states']) \
         == s['points_quarantined']"

echo "== torn segment tails (every 6th point tears its segment)"
(
    export CAPART_CHAOS_TORN_MOD=6
    sharded torn
)
check_identical torn

echo "== hung workers (every 7th point hangs; heartbeat reaps them)"
(
    export CAPART_CHAOS_HANG_MOD=7
    sharded hang --point-timeout=20
)
check_identical hang

echo "== kill -9 mid-run, then --resume"
"$BENCH" "${COMMON[@]}" --shards=3 --ledger-dir="$WORK/kill9.shards" \
    > "$WORK/kill9-first.txt" &
SUP=$!
sleep 2
kill -9 "$SUP" 2>/dev/null || true
wait "$SUP" 2>/dev/null || true
# A SIGKILLed supervisor cannot reap its workers; kill the orphans so
# they do not race the resumed run on the same segment files. (The
# [o] bracket keeps pkill from matching its own command line.)
pkill -9 -f -- "--shard-w[o]rker=" 2>/dev/null || true
sleep 0.2
sharded kill9 --resume
check_identical kill9

echo "== graceful SIGTERM, then --resume"
"$BENCH" "${COMMON[@]}" --shards=3 --ledger-dir="$WORK/term.shards" \
    --ledger="$WORK/term.jsonl" > "$WORK/term-first.txt" &
SUP=$!
sleep 2
kill -TERM "$SUP" 2>/dev/null || true
rc=0
wait "$SUP" || rc=$?
if [[ $rc -ne 0 && $rc -ne 143 ]]; then
    echo "FAIL: SIGTERM run exited $rc (want 143, or 0 if it finished)" >&2
    fail=1
fi
if [[ $rc -eq 143 ]] &&
    ! grep -q '"kind":"run_interrupted"' "$WORK/term.jsonl"; then
    echo "FAIL: interrupted run left no run_interrupted record" >&2
    fail=1
fi
if pgrep -f -- "--shard-w[o]rker=" > /dev/null; then
    echo "FAIL: orphaned shard workers survived graceful SIGTERM" >&2
    pkill -9 -f -- "--shard-w[o]rker=" 2>/dev/null || true
    fail=1
fi
sharded term --resume --ledger="$WORK/term.jsonl"
check_identical term

if [[ $fail -ne 0 ]]; then
    echo "chaos check: FAILED" >&2
    exit 1
fi
echo "chaos check: every scenario byte-identical to the serial run"
