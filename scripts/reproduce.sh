#!/usr/bin/env bash
# Reproduce the full evaluation: build, test, and run every
# table/figure binary, capturing logs at the repository root.
#
#   --sanitize   additionally build with ASan+UBSan into build-asan/
#                and run the test suite under the sanitizers first.
#
#   JOBS=N       sweep parallelism (default: all cores). Results are
#                bit-identical for any N — seeds derive from spec
#                hashes, not schedule.
#   RESUME=1     memoize sweep points in .capart-cache/, kept across
#                reproductions, so an interrupted run restarts where it
#                stopped. Without it the points go to obs/cache/, fresh
#                for each reproduction.
#
# Every bench shares one result cache, so Figs. 10, 11 and the §1
# summary replay the points Figs. 9 and 13 computed.
#
# Every experiment appends to run_ledger.jsonl (one JSON record per
# sweep point) and writes its metrics, trace and structured log under
# obs/<binary>/; afterwards bench_report aggregates the ledger into
# BENCH_capart.json and bench_report.md. Keep the ledger across
# invocations and the report compares the newest run against the
# oldest — an advisory regression check between reproductions. obs/
# belongs to one reproduction and is emptied at the start.
set -u
cd "$(dirname "$0")/.."

JOBS="${JOBS:-0}" # 0 = all cores
LEDGER="${LEDGER:-run_ledger.jsonl}"
OBS=obs
SWEEP_FLAGS="--jobs=$JOBS --cache-dir=$OBS/cache"
[ "${RESUME:-0}" = "1" ] && SWEEP_FLAGS="--jobs=$JOBS --resume"

if [ "${1:-}" = "--sanitize" ]; then
    cmake -B build-asan -G Ninja -DCMAKE_BUILD_TYPE=RelWithDebInfo \
        -DCAPART_SANITIZE=ON
    cmake --build build-asan
    ctest --test-dir build-asan --output-on-failure 2>&1 |
        tee test_output_asan.txt
fi

cmake -B build -G Ninja
cmake --build build

ctest --test-dir build 2>&1 | tee test_output.txt

rm -rf "$OBS"
for b in build/bench/*; do
    [ -f "$b" ] && [ -x "$b" ] || continue
    name="$(basename "$b")"
    case "$name" in
    bench_report | bench_dashboard) continue ;; # readers
    esac
    echo "### $b"
    FLAGS=($SWEEP_FLAGS --ledger="$LEDGER" --obs-dir="$OBS/$name")
    case "$b" in
    *micro_simulator*)
        # google-benchmark binary; takes no capart flags.
        "$b"
        ;;
    *fig13*)
        # The dynamic-policy sweep additionally records per-owner
        # attribution samples and the decision journal for the
        # dashboard rendered below.
        "$b" "${FLAGS[@]}" --obs-sample-period=8
        ;;
    *)
        "$b" "${FLAGS[@]}"
        ;;
    esac
done 2>&1 | tee bench_output.txt

# Aggregate the ledger: BENCH_capart.json time series + markdown
# regression report (advisory — a FAIL verdict does not stop the run).
build/bench/bench_report --ledger="$LEDGER" \
    --json-out=BENCH_capart.json --md-out=bench_report.md
echo "wrote BENCH_capart.json and bench_report.md"

# Render the fig13 dashboard from the ledger and its obs directory.
build/bench/bench_dashboard --ledger="$LEDGER" --bench=fig13_dynamic \
    --obs-dir="$OBS/bench_fig13_dynamic" --out=dashboard.html &&
    echo "wrote dashboard.html"
