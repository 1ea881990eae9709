/**
 * @file
 * SweepRunner: deterministic parallel execution of experiment specs.
 *
 * The runner fans a vector of @ref ExperimentSpec out across `jobs`
 * worker threads, each claiming the next uncomputed point, and returns
 * results in submission order. Every run's RNG seed is
 * `mixSeed(base_seed, spec.hash())` — a function of the spec, not of
 * scheduling — so output is bit-identical for any `--jobs` value. An
 * optional on-disk @ref ResultCache memoizes completed points (keyed by
 * the same derived seed), making interrupted sweeps resumable and
 * repeat runs nearly free.
 *
 * Beyond the in-process threads, the runner has a process-isolated
 * mode (`shards > 1`, see src/exec/shard_supervisor.hh): points are
 * partitioned by spec hash into shard child processes — re-executions
 * of the same binary with `--shard-worker=k` — each appending to its
 * own ledger segment and bit-exact results file, while the parent
 * supervises with per-point timeouts, bounded retries, quarantine, and
 * a deterministic merge. A crashing or hanging point then costs one
 * shard attempt, never the sweep.
 */

#ifndef CAPART_EXEC_SWEEP_RUNNER_HH
#define CAPART_EXEC_SWEEP_RUNNER_HH

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/experiment_spec.hh"

namespace capart::obs
{
class RunLedger;
struct RunRecord;
} // namespace capart::obs

namespace capart::exec
{

/** Per-policy metrics of a Consolidation spec (CoScheduler summary). */
struct PolicyOutcome
{
    /** False when the spec did not request this policy. */
    bool present = false;
    double fgSlowdown = 1.0;
    double bgThroughput = 0.0;
    double energyVsSequential = 1.0;
    double wallEnergyVsSequential = 1.0;
    double weightedSpeedup = 1.0;
    unsigned fgWays = 0;
};

/** Per-policy metrics of an NApp spec (NAppStudy summary). */
struct NAppPolicyOutcome
{
    /** False when the spec did not request this policy. */
    bool present = false;
    /** System throughput: sum of per-app speedups vs solo. */
    double stp = 0.0;
    /** Aggregate instructions per second across the mix. */
    double throughputIps = 0.0;
    /** max slowdown / min slowdown (1 = perfectly fair). */
    double unfairness = 1.0;
    /** App 0's slowdown vs running alone on the machine. */
    double fgSlowdown = 1.0;
    double socketEnergyJ = 0.0;
    double wallEnergyJ = 0.0;
    /** Apps whose slowdown exceeds the study's SLO threshold. */
    unsigned sloBreaches = 0;
    /** Mask installations after the initial decision. */
    unsigned remasks = 0;
};

/** Flat, serializable outcome of one spec. */
struct SweepResult
{
    /** Solo: makespan. Pair: foreground completion time. */
    double time = 0.0;
    double socketEnergy = 0.0;
    double wallEnergy = 0.0;
    double mpki = 0.0;
    double apki = 0.0;
    double ipc = 0.0;
    /** Pair only: background instructions/second during the fg run. */
    double bgThroughput = 0.0;
    bool timedOut = false;
    /** Consolidation only; indexed by static_cast<int>(Policy). */
    PolicyOutcome policy[4];
    /** NApp only; indexed by static_cast<int>(NPolicy). */
    NAppPolicyOutcome napp[6];

    /** True when this result came from the memoization cache (not
     *  serialized; diagnostic only). */
    bool fromCache = false;

    /** True when the point was quarantined after failing every retry
     *  in process-isolated mode: the value fields are defaults, and a
     *  `point_failed` record documents why (not serialized). */
    bool failed = false;
};

/**
 * Execute one spec with the seed derived from (@p base_seed, spec).
 * This is the single entry point every sweep point goes through; it is
 * a pure function of its arguments (no global state), which the
 * determinism tests in tests/test_exec.cc enforce.
 */
SweepResult runSpec(const ExperimentSpec &spec, std::uint64_t base_seed);

/** Memoization key of (@p base_seed, @p spec): the derived seed. */
std::uint64_t specCacheKey(const ExperimentSpec &spec,
                           std::uint64_t base_seed);

class ResultCache;

/** Configuration of a @ref SweepRunner. */
struct SweepRunnerOptions
{
    /** Worker threads; <= 1 runs inline on the calling thread. A
     *  point that throws (or a throwing `progress`) stops further
     *  points from starting; run() rethrows the first exception. */
    unsigned jobs = 1;
    /** Base seed mixed into every spec's derived seed. */
    std::uint64_t baseSeed = 12345;
    /** Path of the memoization cache file; empty disables caching. */
    std::string cachePath;
    /**
     * Called after each completed spec with (done, total). Invoked
     * under a lock, possibly from worker threads; completion order is
     * nondeterministic under --jobs > 1 (results are not).
     */
    std::function<void(std::size_t done, std::size_t total)> progress;
    /**
     * Append one `point` record per finished spec (cache hits
     * included, flagged as cached) to this ledger; nullptr disables.
     * Records land in completion order, which is nondeterministic
     * under --jobs > 1 — readers group by run id and spec hash, never
     * by file position. Recording is output-only and cannot perturb
     * results.
     */
    obs::RunLedger *ledger = nullptr;
    /** Bench name stamped on ledger records (e.g. "fig13_dynamic"). */
    std::string benchName;
    /** Invocation id shared by all of this run's ledger records. */
    std::string runId;
    /**
     * Directory for per-point attribution side files; empty disables.
     * When set (and observability is armed), each computed point's
     * attribution scope — the time-series samples and control-plane
     * journal its worker thread accumulated — is drained after the
     * point finishes and written to
     * `<attrDir>/<bench>-<runId>-<spec hash>.json`. The point's
     * ledger record then carries the path in `attr_file`; the side
     * file's journal is the only record of the point's partitioner
     * decisions. bench_dashboard renders from those files.
     * Cache hits skip all of this: a replayed point executes nothing,
     * so there is nothing to attribute. The directory must already
     * exist.
     */
    std::string attrDir;
    /**
     * This invocation's obs directory (`--obs-dir`); empty disables.
     * Output-only, written only while observability is armed. A
     * sharded sweep's supervisor refreshes `status.json` (see
     * src/obs/status.hh) there every 0.5 s and once more after the
     * merge, and gives worker k the obs directory
     * shardObsDir(obsDir, k), where the worker writes its metrics and
     * trace on exit (writeObsFiles).
     */
    std::string obsDir;

    // ---- process-isolated shard mode --------------------------------

    /**
     * Shard child processes; <= 1 keeps the in-process threads.
     * When > 1 the runner ignores `jobs` (each shard owns a results
     * file under `ledgerDir` instead) and `run()` supervises `shards`
     * re-executions of `workerCmd`. A non-empty `cachePath` is still
     * honoured — each worker reads it through before computing and
     * stores fresh results back, so a warm user cache replays into
     * sharded sweeps and vice versa. Concurrent worker appends are
     * safe: ResultCache lines carry checksums, so a torn or
     * interleaved write is skipped on read, never misread.
     */
    unsigned shards = 0;
    /** >= 0 marks this process as shard worker k: run() computes only
     *  points with `spec.hash() % shards == k` serially, records them
     *  into this shard's segment + results file, and exits — it never
     *  returns. */
    int shardWorker = -1;
    /** Directory holding shard ledger segments and results files. */
    std::string ledgerDir;
    /** Keep existing segments/results (resume an interrupted sweep)
     *  instead of starting fresh. */
    bool resumeShards = false;
    /** Wall-clock seconds a shard may go without appending to its
     *  segment before it is presumed hung and SIGKILLed; 0 (the
     *  default) disables. Liveness is observed only at point
     *  boundaries, so enable this only with a bound on single-point
     *  duration in hand — a timeout below the slowest legitimate
     *  point kills and quarantines valid work as "timeout". */
    double pointTimeoutS = 0.0;
    /** Retries a failing point gets before quarantine (initial attempt
     *  not counted: maxRetries == 2 allows three tries). */
    unsigned maxRetries = 2;
    /**
     * Parent mode: the argv to re-execute for workers — the current
     * binary and flags. The supervisor appends `--shards=N`,
     * `--shard-worker=k`, `--ledger-dir=D`, and with observability
     * armed `--obs-dir=<obsDir>/shard-<k>` (later flags override
     * earlier ones in parseArgs). Empty disables shard mode.
     */
    std::vector<std::string> workerCmd;
    /** Signal flag polled for graceful shutdown (SIGTERM/SIGINT); the
     *  supervisor terminates shards, merges what completed, marks the
     *  run interrupted, and exits. nullptr disables. */
    const volatile std::sig_atomic_t *stopFlag = nullptr;
};

/** `<dir>/shard-<k>`: shard worker k's obs directory under a sharded
 *  sweep's obs directory @p dir. */
std::string shardObsDir(const std::string &dir, unsigned shard);

/**
 * Write this process's metrics registry to `<dir>/metrics.json` and its
 * Chrome trace to `<dir>/trace.json` (creating @p dir): the one writer
 * of both, for benches and shard workers alike. With @p shards > 1 and
 * observability armed (a sharded sweep's supervisor), trace.json then
 * stitches in every `shardObsDir(dir, k)/trace.json` (see
 * src/obs/trace_stitch.hh). Failures go to stderr.
 */
void writeObsFiles(const std::string &dir, unsigned shards = 0);

/**
 * Compute one point end to end and record everything about it: trace
 * span, points-computed counter, optional cache store, attribution
 * side-file export, and the `point` ledger record (to @p ledger, which
 * overrides opts.ledger so shard workers can target their segment).
 * The single execution path shared by the in-process runner and the
 * shard worker loop — both therefore produce bit-identical records.
 */
SweepResult computePoint(const SweepRunnerOptions &opts,
                         const ExperimentSpec &spec, ResultCache *cache,
                         obs::RunLedger *ledger);

/**
 * Flatten one finished point into a `point` ledger record — the
 * canonical encoding shared by the in-process runner and the shard
 * worker, so a cache replay and a fresh computation of the same spec
 * yield byte-comparable records.
 */
obs::RunRecord pointRecord(const SweepRunnerOptions &opts,
                           const ExperimentSpec &spec,
                           const SweepResult &r, double wall_ms);

/** Fans specs across worker threads; results in submission order. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepRunnerOptions opts);

    /**
     * Run every spec and return results[i] for specs[i]. Cached points
     * are returned without re-execution (marked fromCache); newly
     * computed points are appended to the cache as they complete, so
     * an interrupted sweep resumes where it stopped.
     *
     * With opts.shards > 1 the sweep instead runs process-isolated
     * (see shard_supervisor.hh); with opts.shardWorker >= 0 this
     * process IS a shard worker and run() never returns — it exits
     * after computing its subset.
     */
    std::vector<SweepResult> run(const std::vector<ExperimentSpec> &specs);

    const SweepRunnerOptions &options() const { return opts_; }

  private:
    SweepRunnerOptions opts_;
};

} // namespace capart::exec

#endif // CAPART_EXEC_SWEEP_RUNNER_HH
