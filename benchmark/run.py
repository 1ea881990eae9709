#!/usr/bin/env python3
"""Build and run the repository benchmark; print and record its metrics.

    benchmark/run.sh [--workload W | --workloads=a,b] [--seed N]
                     [--seconds S] [--trace [0|1]] [--repeat=K]
                     [--smoke] [--out=DIR] [--binary=PATH]

Builds benchmark/ (its own CMake project) into build-benchmark/, then runs
each workload in its own single-threaded process. Every metric is printed
as `workload metric value unit`, all runs are written to DIR/results.json
(default build-benchmark/results), and the last line of output is one JSON
object with the keys correct, attempted, failed and metrics. The exit
status is non-zero when a run fails or any correctness check fails.

--trace (or --trace 1) reports the per-layer metrics of BENCHMARK.json
instead of the end-to-end ones and writes DIR/<workload>.trace.json.
--repeat=K runs every workload K times, alternating workloads, with seeds
N, N+1, ..., and prints each metric's median and quartile spread.
--smoke runs every workload at three points, traced and untraced, and
fails if the metric names differ from those BENCHMARK.json lists.
"""

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BUILD = ROOT / "build-benchmark"
WORKLOADS = ["pair_dynamic", "napp_mixes", "corun_shared", "napp_obs"]
# Set-up is timed over this many separate launches; the median counts.
SETUP_LAUNCHES = 21


def parse_args():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", action="append", default=[])
    p.add_argument("--workloads", default="")
    p.add_argument("--seed", type=int, default=12345)
    p.add_argument("--seconds", type=float, default=0.0)
    p.add_argument("--trace", nargs="?", const="1", default="0",
                   choices=["0", "1"])
    p.add_argument("--repeat", type=int, default=1)
    p.add_argument("--smoke", action="store_true")
    p.add_argument("--out", default=str(BUILD / "results"))
    p.add_argument("--binary", default="")
    a = p.parse_args()
    names = a.workload + [w for w in a.workloads.split(",") if w]
    a.names = names or WORKLOADS
    unknown = [w for w in a.names if w not in WORKLOADS]
    if unknown or a.repeat < 1 or a.seconds < 0:
        p.error("unknown workload %s" % unknown if unknown
                else "--repeat must be >= 1 and --seconds >= 0")
    return a


def build():
    """Configure (once) and build the benchmark; return the binary."""
    BUILD.mkdir(exist_ok=True)
    log_path = BUILD / "build.log"
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(ROOT / "benchmark"), "-B",
                      str(BUILD), "-DCMAKE_BUILD_TYPE=Release"] + gen)
    steps.append(["cmake", "--build", str(BUILD), "--target",
                  "capart_benchmark", "-j", str(os.cpu_count() or 1)])
    with open(log_path, "w") as log:
        for cmd in steps:
            if subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                log.close()
                tail = log_path.read_text().splitlines()[-30:]
                sys.stderr.write("benchmark build failed:\n%s\n"
                                 % "\n".join(tail))
                sys.exit(2)
    return BUILD / "capart_benchmark"


def setup_seconds(binary, workload, seed, out, launches):
    """Median wall time of launches that stop before the first point."""
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--setup-only", "--out=" + out]
    times = []
    for _ in range(launches):
        t0 = time.perf_counter()
        if subprocess.run(cmd, cwd=ROOT).returncode != 0:
            sys.exit("set-up of %s failed" % workload)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def run_once(binary, workload, seed, seconds, trace, smoke, out):
    cmd = [str(binary), "--workload=" + workload, "--seed=%d" % seed,
           "--seconds=%r" % seconds, "--out=" + out]
    if trace:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if subprocess.run(cmd, cwd=ROOT).returncode != 0:
        sys.exit("benchmark run of %s failed" % workload)
    with open(os.path.join(out, workload + ".json")) as f:
        res = json.load(f)
    if not trace:
        launches = 3 if smoke else SETUP_LAUNCHES
        res["metrics"]["setup_s"] = {
            "value": setup_seconds(binary, workload, seed, out, launches),
            "unit": "s"}
    return res


def print_run(res):
    w = res["workload"]
    for name, m in res["metrics"].items():
        print("%s %s %r %s" % (w, name, m["value"], m["unit"]))
    info = res["info"]
    units = {"sim_digest": "fnv1a", "points": "count",
             "paper_gap_dyn_bg_pct": "%", "fg_cost_dyn_pct": "pp",
             "fg_slowdown": "x", "throughput_ratio": "x",
             "replay_layer_coverage": "ratio"}
    for key, unit in units.items():
        if key in info:
            print("%s %s %s %s" % (w, key, info[key], unit))
    for fb in info.get("fallback_points", []):
        print("%s fallback.%s %d count" % (w, fb["point"], fb["fallbacks"]))
    if w.startswith("napp"):
        print("%s fidelity unvalidated (no paper reference for N-app mixes)"
              " -" % w)
    for problem in res["problems"]:
        print("%s FAILED %s" % (w, problem), file=sys.stderr)
    sys.stdout.flush()


def check_trace_file(path):
    """'' when @p path is a well-formed Chrome trace, else the reason."""
    try:
        with open(path) as f:
            doc = json.load(f)
    except (OSError, ValueError) as e:
        return "unreadable trace %s: %s" % (path, e)
    events = doc.get("traceEvents")
    if not isinstance(events, list) or not events:
        return "trace %s has no traceEvents" % path
    for e in events:
        if e.get("ph") == "X" and not (
                isinstance(e.get("ts"), (int, float)) and
                isinstance(e.get("dur"), (int, float)) and e["dur"] >= 0):
            return "trace %s has a malformed span %r" % (path, e)
    return ""


def smoke_problems(res, trace, out, spec):
    """Metric names against BENCHMARK.json, and the trace file."""
    want = {m["name"] for m in spec["per_layer" if trace else "end_to_end"]}
    have = set(res["metrics"])
    problems = []
    if want - have:
        problems.append("missing metrics %s" % sorted(want - have))
    if have - want:
        problems.append("metrics not in BENCHMARK.json %s"
                        % sorted(have - want))
    if trace:
        bad = check_trace_file(
            os.path.join(out, res["workload"] + ".trace.json"))
        if bad:
            problems.append(bad)
    return problems


def spread(values):
    """Median and (Q3 - Q1) / median of @p values."""
    med = statistics.median(values)
    if len(values) < 2:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med if med else 0.0


def main():
    args = parse_args()
    os.makedirs(args.out, exist_ok=True)
    binary = pathlib.Path(args.binary) if args.binary else build()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traces = [False, True] if args.smoke else [args.trace == "1"]

    runs, problems = [], []
    for k in range(args.repeat):
        for trace in traces:
            for w in args.names:
                res = run_once(binary, w, args.seed + k, args.seconds,
                               trace, args.smoke, args.out)
                print_run(res)
                runs.append(res)
                problems += ["%s: %s" % (w, p) for p in res["problems"]]
                if args.smoke:
                    problems += ["%s: %s" % (w, p) for p in
                                 smoke_problems(res, trace, args.out, spec)]

    summary = {}
    for res in runs:
        for name, m in res["metrics"].items():
            key = (res["workload"], res["trace"], name)
            summary.setdefault(key, ([], m["unit"]))[0].append(m["value"])
    if args.repeat > 1:
        for (w, _, name), (values, unit) in summary.items():
            med, iqr = spread(values)
            print("%s %s median %r iqr/median %.4f %s (n=%d)"
                  % (w, name, med, iqr, unit, len(values)))

    with open(os.path.join(args.out, "results.json"), "w") as f:
        json.dump({"runs": runs, "problems": problems}, f, indent=1)
    for p in problems:
        print("FAILED %s" % p, file=sys.stderr)

    single = len(args.names) == 1 and len(traces) == 1
    metrics = {}
    for (w, _, name), (values, unit) in summary.items():
        metrics[name if single else "%s:%s" % (w, name)] = {
            "value": statistics.median(values), "unit": unit}
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(int(r["attempted"]) for r in runs),
        "failed": sum(int(r["failed"]) for r in runs),
        "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
