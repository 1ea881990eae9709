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
};

/**
 * Parse --scale=X, --csv, --quick, --seed=N, --jobs=N, --resume,
 * --cache-dir=D, --ledger=F, --obs-dir=D, --obs-sample-period=N and
 * --log-level=L; prints usage and exits on --help or unknown
 * arguments. @p default_scale seeds opts.scale. stdout (the table/CSV)
 * is never touched by any obs flag, so golden outputs stay
 * byte-identical.
 *
 * --resume (or --cache-dir=D) memoizes every finished sweep point in a
 * checksummed cache file, so a killed sweep, run again with the same
 * flags, computes only the points it had not finished and prints
 * byte-identical output.
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
 * parseArgs also arms SIGTERM/SIGINT handling: the signals are blocked
 * process-wide and consumed by a dedicated watcher thread (sigwait),
 * so shutdown always runs in normal thread context. An interrupted run
 * exits 128+signal through std::quick_exit: its exporters append a
 * `run_interrupted` record before the closing `bench` record and write
 * the metrics and trace, while no static destructor runs under sweep
 * workers still computing. A second signal aborts immediately.
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
