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
 */

#ifndef CAPART_EXEC_SWEEP_RUNNER_HH
#define CAPART_EXEC_SWEEP_RUNNER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "exec/experiment_spec.hh"

namespace capart::obs
{
class RunLedger;
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
};

/** Fans specs across worker threads; results in submission order. */
class SweepRunner
{
  public:
    explicit SweepRunner(SweepRunnerOptions opts);

    /**
     * Run every spec and return results[i] for specs[i]. A spec listed
     * more than once (same hash) runs, caches and ledgers once, and
     * every listing returns its result; progress still counts each
     * listing. Cached points are returned without re-execution (marked
     * fromCache); newly computed points are appended to the cache as
     * they complete, so an interrupted sweep resumes where it stopped.
     */
    std::vector<SweepResult> run(const std::vector<ExperimentSpec> &specs);

    const SweepRunnerOptions &options() const { return opts_; }

  private:
    SweepRunnerOptions opts_;
};

} // namespace capart::exec

#endif // CAPART_EXEC_SWEEP_RUNNER_HH
