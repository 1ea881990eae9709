#!/usr/bin/env bash
#
# Crash/resume check for in-process sweeps.
#
# Runs the fig13 sweep with --jobs=2 over a --cache-dir result cache,
# cuts it short in the ways a real run can be cut — a SIGKILL, a cache
# file torn mid-line, a graceful SIGTERM — resumes it with the same
# flags, and requires each resumed run's stdout to be byte-identical to
# a clean serial (--jobs=1) run: an interruption may cost recomputation,
# never a changed result. The SIGTERM run must also exit 143 and leave
# a `run_interrupted` record in its ledger.
#
# A last scenario runs fig09 and then fig10 over one --cache-dir: every
# bench shares the directory's sweep.cache, so fig10 must replay all 21
# of its points from fig09's (every `point` record cached) and print
# exactly what a clean fig10 run prints.
#
# Usage: scripts/resume_check.sh [build-dir]   (default: build)

set -euo pipefail

BUILD_DIR=${1:-build}
BENCH="$BUILD_DIR/bench/bench_fig13_dynamic"
FIG09="$BUILD_DIR/bench/bench_fig09_static_policies"
FIG10="$BUILD_DIR/bench/bench_fig10_consolidation_energy"
for b in "$BENCH" "$FIG09" "$FIG10"; do
    if [[ ! -x $b ]]; then
        echo "error: $b not built" >&2
        exit 2
    fi
done

WORK=$(mktemp -d)
trap 'rm -rf "$WORK"' EXIT

COMMON=(--quick --scale=0.02 --seed=1)
# The sweep under test; each scenario adds its own --cache-dir.
SWEEP=("$BENCH" "${COMMON[@]}" --jobs=2)
# Points that must be cached before a run is cut (of 36).
CUT_AFTER=4

fail=0

# check_identical NAME [GOLDEN]: NAME's stdout must equal GOLDEN's
# (default: golden).
check_identical() {
    local name=$1 golden=${2:-golden}
    if cmp -s "$WORK/$golden.txt" "$WORK/$name.txt"; then
        echo "ok: $name matches $golden output"
    else
        echo "FAIL: $name diverges from $golden output" >&2
        diff -u "$WORK/$golden.txt" "$WORK/$name.txt" | head -40 >&2 ||
            true
        fail=1
    fi
}

# wait_for_points NAME PID: wait until NAME's cache holds CUT_AFTER
# points (plus its header line) or PID has exited.
wait_for_points() {
    local file="$WORK/$1.cache/sweep.cache" pid=$2
    while kill -0 "$pid" 2>/dev/null; do
        if [[ -f $file ]] && (($(wc -l < "$file") > CUT_AFTER)); then
            return
        fi
        sleep 0.05
    done
}

echo "== golden: serial run"
"$BENCH" "${COMMON[@]}" --jobs=1 > "$WORK/golden.txt"

echo "== kill -9 mid-run, then --resume"
"${SWEEP[@]}" --cache-dir="$WORK/kill9.cache" > /dev/null 2>&1 &
RUN=$!
wait_for_points kill9 "$RUN"
kill -9 "$RUN" 2>/dev/null || true
wait "$RUN" 2>/dev/null || true
"${SWEEP[@]}" --cache-dir="$WORK/kill9.cache" > "$WORK/kill9.txt"
check_identical kill9

echo "== cache torn mid-line, then --resume"
cp -r "$WORK/kill9.cache" "$WORK/torn.cache"
CACHE="$WORK/torn.cache/sweep.cache"
size=$(($(wc -c < "$CACHE") / 2))
# Cut inside a line, never just after its newline.
while [[ $(head -c "$size" "$CACHE" | tail -c 1 | od -An -c) == *'\n'* ]]
do
    size=$((size - 1))
done
truncate -s "$size" "$CACHE"
"${SWEEP[@]}" --cache-dir="$WORK/torn.cache" > "$WORK/torn.txt"
check_identical torn

echo "== graceful SIGTERM, then --resume"
"${SWEEP[@]}" --cache-dir="$WORK/term.cache" --ledger="$WORK/term.jsonl" \
    > /dev/null 2>&1 &
RUN=$!
wait_for_points term "$RUN"
kill -TERM "$RUN" 2>/dev/null || true
rc=0
wait "$RUN" || rc=$?
if [[ $rc -ne 143 ]]; then
    echo "FAIL: SIGTERM run exited $rc (want 143)" >&2
    fail=1
fi
if ! grep -q '"kind":"run_interrupted".*"rule":"SIGTERM"' "$WORK/term.jsonl"
then
    echo "FAIL: interrupted run left no run_interrupted record" >&2
    fail=1
fi
"${SWEEP[@]}" --cache-dir="$WORK/term.cache" --ledger="$WORK/term.jsonl" \
    > "$WORK/term.txt"
check_identical term

echo "== fig09, then fig10 over the same --cache-dir"
"$FIG10" "${COMMON[@]}" --jobs=1 > "$WORK/fig10_golden.txt"
"$FIG09" "${COMMON[@]}" --jobs=2 --cache-dir="$WORK/shared.cache" \
    > /dev/null 2>&1
"$FIG10" "${COMMON[@]}" --jobs=2 --cache-dir="$WORK/shared.cache" \
    --ledger="$WORK/shared.jsonl" > "$WORK/fig10_shared.txt"
check_identical fig10_shared fig10_golden
points=$(grep -c '"kind":"point"' "$WORK/shared.jsonl" || true)
cached=$(grep '"kind":"point"' "$WORK/shared.jsonl" |
    grep -c '"cached":true' || true)
if [[ $points -ne 21 || $cached -ne 21 ]]; then
    echo "FAIL: fig10 ledgered $cached cached of $points points" \
        "(want 21 of 21)" >&2
    fail=1
else
    echo "ok: fig10 replayed all 21 points from fig09's cache"
fi

if [[ $fail -ne 0 ]]; then
    echo "resume check: FAILED" >&2
    exit 1
fi
echo "resume check: every scenario byte-identical to its clean run"
