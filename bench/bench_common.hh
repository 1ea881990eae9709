/**
 * @file
 * Shared infrastructure for the experiment binaries in bench/.
 *
 * Each binary regenerates one table or figure of the paper (see
 * DESIGN.md's per-experiment index). They share command-line handling,
 * the sweep every figure point runs in, the characterization points of
 * §3, and the representative-pair specs of §5 and §6.
 */

#ifndef CAPART_BENCH_BENCH_COMMON_HH
#define CAPART_BENCH_BENCH_COMMON_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "exec/sweep_runner.hh"
#include "stats/summary.hh"
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
 * --cache-dir=D, --ledger=F, --obs-dir=D and --obs-sample-period=N;
 * prints usage and exits on --help or unknown arguments.
 * @p default_scale seeds opts.scale. stdout (the table/CSV) is never
 * touched by any obs flag, so golden outputs stay byte-identical.
 *
 * --resume (or --cache-dir=D) memoizes every finished sweep point in a
 * checksummed cache file, so a killed sweep, run again with the same
 * flags, computes only the points it had not finished and prints
 * byte-identical output.
 *
 * --ledger=F appends one record per sweep point to F, the append-only
 * record many invocations share; it stamps a run id
 * (`<bench>-<seed>-<epoch ms>`) on every record of the invocation and
 * appends a final `bench` record at exit, which carries the obs
 * counters only when --obs-dir armed them. It records nothing else.
 *
 * --obs-dir=D is the one flag that enables the observability layer;
 * it changes what is written, never what is simulated. It writes
 * everything that belongs to this one invocation under D, with fixed
 * names: `metrics.json` (the metrics registry) and `trace.json` (a
 * Chrome trace of host time) at exit, `log.jsonl` (the structured log, see
 * common/logging.hh), and `attr/` — one attribution side file per
 * computed sweep point (the point's ledger record links it; it is the
 * only record of the point's partitioner decisions), plus one for
 * samples a bench recorded outside any sweep. --obs-sample-period=N
 * sets the per-owner sampling those files carry, every N quanta; it
 * is a usage error without --obs-dir.
 * `bench_dashboard --ledger=F --obs-dir=D` renders the HTML dashboard.
 *
 * parseArgs also arms SIGTERM/SIGINT handling: the signals are blocked
 * process-wide and consumed by a dedicated watcher thread (sigwait),
 * so shutdown always runs in normal thread context. An interrupted run
 * exits 128+signal through std::quick_exit: its exporter appends a
 * `run_interrupted` record before the closing `bench` record and
 * writes `metrics.json` but no `trace.json`, while no static destructor
 * runs under sweep workers still computing. A second signal aborts
 * immediately.
 */
BenchOptions parseArgs(int argc, char **argv, double default_scale,
                       const char *description);

/**
 * A SweepRunner configured from @p opts: seeded with opts.seed, with
 * opts.jobs workers, progress on stderr, ledger records named after
 * the binary, and — with opts.resume — the cache `<cacheDir>/sweep.cache`
 * (directory and header created). Every bench shares that file, since
 * a point's key (`mixSeed(seed, spec hash)`) does not name the bench:
 * Figs. 10 and 11 replay Fig. 9's points, and benches running at once
 * only append checksummed lines to it.
 */
exec::SweepRunner makeRunner(const BenchOptions &opts);

/** The times of the @p n results from @p next on; advances @p next. */
std::vector<double> takeTimes(const std::vector<exec::SweepResult> &res,
                              std::size_t &next, std::size_t n);

/** Print @p table as text or CSV per @p opts, preceded by a title. */
void emit(const BenchOptions &opts, const std::string &title,
          const Table &table);

/** Append §3.1's points of @p app: 1..8 threads on the whole LLC. */
void addThreadSweep(std::vector<exec::ExperimentSpec> &specs,
                    const std::string &app, double scale);

/** Append §3.2's points of @p app: 1..12 ways at @p threads. */
void addWaySweep(std::vector<exec::ExperimentSpec> &specs,
                 const std::string &app, double scale,
                 unsigned threads = 4);

/** Append Fig. 3's points of @p app: all prefetchers on, then off. */
void addPrefetchSweep(std::vector<exec::ExperimentSpec> &specs,
                      const std::string &app, double scale);

/** Append Fig. 4's points of @p app: next to stream_uncached, then
 *  alone. */
void addHogSweep(std::vector<exec::ExperimentSpec> &specs,
                 const std::string &app, double scale);

/** Classify a 1..8-thread time curve into Table 1's classes. */
ScalClass classifyScalability(const std::vector<double> &times);

/** Classify a 1..12-way time curve into Table 2's classes. */
UtilClass classifyUtility(const std::vector<double> &times);

/** Fig. 9's points: each ordered representative pair (fg i, bg j,
 *  row-major) under shared, fair and biased. */
std::vector<exec::ExperimentSpec> fig09Specs(double scale);

/** Fig. 13's points: each ordered representative pair under shared,
 *  biased and dynamic, with the controller's 15 us perf window. */
std::vector<exec::ExperimentSpec> fig13Specs(double scale);

/**
 * Figs. 10 and 11: sweep Fig. 9's unordered pairs (fg <= bg) and emit
 * @p metric under shared, fair and biased, plus an Average row, as one
 * table titled @p title. Returns each policy's statistics.
 */
std::map<Policy, RunningStat>
emitUnorderedPairs(const BenchOptions &opts, const std::string &title,
                   double exec::PolicyOutcome::*metric);

/** The six Table 3 cluster representatives, in order C1..C6. */
std::vector<AppParams> representatives();

/** Short label Ck for representative index k (0-based). */
std::string repLabel(std::size_t idx);

} // namespace capart::bench

#endif // CAPART_BENCH_BENCH_COMMON_HH
