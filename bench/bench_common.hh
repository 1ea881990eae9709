/**
 * @file
 * Shared infrastructure for the experiment binaries in bench/.
 *
 * Each binary regenerates one table or figure of the paper (see
 * DESIGN.md's per-experiment index). They share command-line handling
 * (--scale, --csv, --quick), the characterization sweeps of §3, and
 * the representative-pair enumeration of §5.
 */

#ifndef CAPART_BENCH_BENCH_COMMON_HH
#define CAPART_BENCH_BENCH_COMMON_HH

#include <string>
#include <vector>

#include "exec/sweep_runner.hh"
#include "sim/experiment.hh"
#include "stats/table.hh"
#include "workload/app_params.hh"

namespace capart::bench
{

/** Common command-line options for experiment binaries. */
struct BenchOptions
{
    /** Instruction-scale factor applied to every application. */
    double scale = 0.2;
    /** Emit CSV instead of aligned text. */
    bool csv = false;
    /** Cheaper settings (fewer points / smaller scale). */
    bool quick = false;
    /** Random seed for the platform. */
    std::uint64_t seed = 12345;
    /** Sweep worker threads (--jobs=N; 0 = one per host core). */
    unsigned jobs = 1;
    /** Memoize sweep points on disk and skip completed ones. */
    bool resume = false;
    /** Cache directory for --resume (default .capart-cache/). */
    std::string cacheDir;
    /** Append run-ledger records (JSONL) to this file ("" = off). */
    std::string ledgerOut;
    /** Attribution sampling period in quanta (0 = off). */
    std::uint64_t obsSamplePeriod = 0;
    /** This invocation's obs directory ("" = off); see parseArgs. */
    std::string obsDir;
    /** Process-isolated shard workers (--shards=N; 0-1 = in-process
     *  --jobs threads). See exec/shard_supervisor.hh. */
    unsigned shards = 0;
    /** >= 0: this process is shard worker k (internal; the supervisor
     *  passes it when re-executing the binary). */
    int shardWorker = -1;
    /** Directory for shard ledger segments / results / logs
     *  (default `<cacheDir>/shards`). */
    std::string ledgerDir;
    /** Seconds a shard may go without completing a point before it is
     *  presumed hung and killed (--point-timeout=S). 0 — the default —
     *  disables: liveness ticks only at point boundaries, so hang
     *  detection is opt-in for sweeps whose slowest point is bounded. */
    double pointTimeoutS = 0.0;
    /** Retries a failing point gets before quarantine. */
    unsigned maxRetries = 2;
};

/**
 * Parse --scale=X, --csv, --quick, --seed=N, --jobs=N, --resume,
 * --cache-dir=D, --ledger=F, --obs-dir=D, --obs-sample-period=N,
 * --log-level=L and the shard flags below; prints usage and exits on
 * --help or unknown arguments. @p default_scale seeds opts.scale.
 * stdout (the table/CSV) is never touched by any obs flag, so golden
 * outputs stay byte-identical.
 *
 * --ledger=F appends one record per sweep point to F, the append-only
 * record many invocations share; it stamps a run id
 * (`<bench>-<seed>-<epoch ms>`) on every record of the invocation and
 * appends a final `bench` record at exit.
 *
 * --obs-dir=D enables the observability layer and writes everything
 * that belongs to this one invocation under D, with fixed names:
 * `metrics.json` (the metrics registry) and `trace.json` (a Chrome
 * trace) at exit, `log.jsonl` (the structured log, see
 * common/logging.hh), and `attr/` — one attribution side file per
 * computed sweep point (the point's ledger record links it; it is the
 * only record of the point's partitioner decisions), plus one for
 * samples a bench recorded outside any sweep. --obs-sample-period=N
 * arms the per-owner sampling those files carry, every N quanta.
 * `bench_dashboard --ledger=F --obs-dir=D` renders the HTML dashboard.
 *
 * Robustness flags: --shards=N runs sweeps process-isolated — N
 * supervised worker processes, per-point timeouts (--point-timeout=S),
 * bounded retries (--max-retries=N), quarantine, and a crash-safe
 * ledger merge from segment files under --ledger-dir=D (see
 * exec/shard_supervisor.hh). With --resume the supervisor keeps
 * existing segments and fast-forwards past finished points, so a
 * killed sweep continues where it stopped. With --obs-dir=D the
 * supervisor keeps a live, atomically replaced D/status.json fresh
 * (per-shard pids, progress, retries, quarantines, heartbeat ages;
 * sweep throughput / ETA / cache-hit rate — watch it with
 * `bench_status --watch D/status.json`), and gives worker k
 * `--obs-dir=D/shard-<k>`. A worker writes its metrics, trace and log
 * there and never the ledger (the supervisor merges its segment);
 * the supervisor stitches their traces with its own into
 * D/trace.json (see src/obs/trace_stitch.hh).
 *
 * parseArgs also arms SIGTERM/SIGINT handling: the signals are blocked
 * process-wide and consumed by a dedicated watcher thread (sigwait),
 * so shutdown always runs in normal thread context — an interrupted
 * run flushes its ledger, metrics, and trace through the normal atexit
 * exporters before exiting 128+signal (a second signal aborts
 * immediately). Shard supervisors and workers instead observe the
 * signal cooperatively at the next point boundary.
 */
BenchOptions parseArgs(int argc, char **argv, double default_scale,
                       const char *description);

/** The --ledger run id of this invocation ("" without --ledger). */
const std::string &runId();

/**
 * A SweepRunner configured from @p opts: seeded with opts.seed, with
 * opts.jobs workers, progress ticks on stderr, and — when opts.resume
 * is set — an on-disk memoization cache at
 * `<cacheDir>/<bench_name>.cache` (the directory is created).
 */
exec::SweepRunner makeRunner(const BenchOptions &opts,
                             const std::string &bench_name);

/** Print @p table as text or CSV per @p opts, preceded by a title. */
void emit(const BenchOptions &opts, const std::string &title,
          const Table &table);

/** Solo execution time with @p threads hyperthreads, full LLC. */
SoloResult soloAtThreads(const AppParams &app, unsigned threads,
                         const BenchOptions &opts);

/** Solo execution time at 4 threads with a restricted way allocation. */
SoloResult soloAtWays(const AppParams &app, unsigned ways,
                      const BenchOptions &opts, unsigned threads = 4);

/** Solo run with a specific prefetcher configuration. */
SoloResult soloWithPrefetch(const AppParams &app, bool prefetch_on,
                            const BenchOptions &opts);

/** §3.1 sweep: execution times at 1..8 threads. */
std::vector<double> scalabilityCurve(const AppParams &app,
                                     const BenchOptions &opts);

/** §3.2 sweep: execution times at 1..12 ways (4 threads). */
std::vector<double> llcCurve(const AppParams &app,
                             const BenchOptions &opts,
                             unsigned threads = 4);

/** Classify a 1..8-thread time curve into Table 1's classes. */
ScalClass classifyScalability(const std::vector<double> &times);

/** Classify a 1..12-way time curve into Table 2's classes. */
UtilClass classifyUtility(const std::vector<double> &times);

/** Fig. 4 measurement: slowdown when co-run with stream_uncached. */
double bandwidthSlowdown(const AppParams &app, const BenchOptions &opts);

/** Fig. 3 measurement: time(all prefetchers on) / time(all off). */
double prefetchRatio(const AppParams &app, const BenchOptions &opts);

/** The six Table 3 cluster representatives, in order C1..C6. */
std::vector<AppParams> representatives();

/** Short label Ck for representative index k (0-based). */
std::string repLabel(std::size_t idx);

} // namespace capart::bench

#endif // CAPART_BENCH_BENCH_COMMON_HH
