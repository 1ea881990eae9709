/**
 * @file
 * Perf-regression reporting over run ledgers.
 *
 * The run ledger (src/obs/run_ledger.hh) accumulates one `point`
 * record per sweep point across repeated bench invocations. This
 * module turns those raw records into the two artifacts CI consumes:
 *
 *  - `BENCH_capart.json` — a machine-readable time series: one entry
 *    per run id with per-metric mean/min/max over that run's points,
 *    ordered by start time, so dashboards can plot headline figures
 *    (FG slowdown, BG throughput, energy deltas) across history;
 *  - a markdown report — baseline-vs-current deltas per metric with a
 *    distribution-free sign test over per-pair samples and a
 *    pass/warn/fail verdict per metric plus an overall gate verdict.
 *
 * Points are paired across runs by spec hash (the same canonical
 * experiment), never by file position — ledger order is completion
 * order, which is nondeterministic under --jobs > 1. Each metric has a
 * direction (higher-is-worse, higher-is-better, neutral); the gate
 * only fires in the worse direction, and only when the mean moved past
 * the threshold, the majority of pairs moved the same way, and — when
 * enough pairs exist for significance to be reachable — the sign test
 * agrees.
 */

#ifndef CAPART_REPORT_REPORT_HH
#define CAPART_REPORT_REPORT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "obs/run_ledger.hh"

namespace capart::report
{

/** Every ledger record sharing one run id. */
struct RunGroup
{
    std::string run;
    std::string bench;
    /** Earliest record timestamp (unix ms); groups sort by this. */
    double startTsMs = 0.0;
    /** The run's `point` records, in ledger (completion) order. */
    std::vector<obs::RunRecord> points;
    /** The run's closing `bench` records (normally one; none when the
     *  run was killed before exit or wrote only points). The last one
     *  carries the run's wall time. */
    std::vector<obs::RunRecord> benchRecords;
    /** `run_interrupted` records: the run was stopped by a signal
     *  after flushing what completed. Flags the run as partial. */
    std::vector<obs::RunRecord> interruptions;

    /** Points replayed from the memoization cache. */
    std::size_t cachedPoints() const;
};

/**
 * Group @p records by run id, each group's records in input order,
 * groups sorted by start timestamp (ties broken by run id so output is
 * deterministic). Retired record kinds join no bucket.
 */
std::vector<RunGroup> groupRuns(const std::vector<obs::RunRecord> &records);

/**
 * Regression direction of a metric: +1 when higher is worse (times,
 * energy, slowdowns, MPKI), -1 when higher is better (throughput,
 * IPC, speedups), 0 for neutral diagnostics (way counts, flags) that
 * are reported but never gated on.
 */
int metricDirection(const std::string &name);

/** Aggregate of one metric over one run's points. */
struct MetricStats
{
    double mean = 0.0;
    double min = 0.0;
    double max = 0.0;
    std::size_t n = 0;
};

/** Union of metric names across @p g's points, first-seen order. */
std::vector<std::string> metricNames(const RunGroup &g);

/** Aggregate @p name over @p g's points (n == 0 when absent). */
MetricStats metricStats(const RunGroup &g, const std::string &name);

/**
 * Write the BENCH_capart.json document: schema version, generation
 * metadata, and one entry per run group (in time order) with
 * per-metric mean/min/max/n over the group's points. An entry's
 * `wall_ms` is its `bench` record's wall time, absent without one.
 */
void writeBenchJson(std::ostream &os, const std::vector<RunGroup> &groups);

/** Gate outcome, worst first. */
enum class Verdict
{
    Pass,
    Warn,
    Fail
};

const char *verdictName(Verdict v);

/** One metric's baseline-vs-current comparison. */
struct MetricComparison
{
    std::string name;
    int direction = 0;
    /** Spec-hash pairs present in both runs with this metric. */
    unsigned pairs = 0;
    double baselineMean = 0.0;
    double currentMean = 0.0;
    /** (current - baseline) / |baseline|, sign as measured. */
    double relDelta = 0.0;
    /** Pairs that moved in the worse / better direction (ties drop). */
    unsigned worse = 0;
    unsigned better = 0;
    /** Sign-test p-value for "current is worse" (1 when untestable). */
    double pValue = 1.0;
    Verdict verdict = Verdict::Pass;
    /** Spec hash of the pair that moved furthest in the worse
     *  direction (0 when no pair moved worse). */
    std::uint64_t worstSpecHash = 0;
    /** That pair's current-run attribution side file ("" when the run
     *  recorded none); lets a regression report link straight to the
     *  offending point's resource timeline. */
    std::string worstAttrFile;
};

/** A full baseline-vs-current comparison. */
struct RunComparison
{
    std::string baselineRun;
    std::string currentRun;
    std::vector<MetricComparison> metrics;
    /** Worst per-metric verdict. */
    Verdict verdict = Verdict::Pass;
};

/**
 * Compare @p current against @p baseline: pair points by spec hash,
 * compare every directional metric the runs share, and apply the gate
 * thresholds: a worse-direction mean delta of 2 % warns and one of
 * 5 % fails. A FAIL additionally requires the majority of pairs to
 * have moved in the worse direction and — when at least six untied
 * pairs exist, the minimum for a sign test to reach p <= 0.05 — a
 * sign test significant at 0.05; with fewer pairs the mean threshold
 * and majority alone decide, since significance is unreachable.
 */
RunComparison compareRuns(const RunGroup &baseline,
                          const RunGroup &current);

/**
 * Write the human-readable markdown report: run inventory, and — when
 * @p cmp is non-null — the per-metric delta table and overall verdict.
 */
void writeMarkdown(std::ostream &os, const std::vector<RunGroup> &groups,
                   const RunComparison *cmp);

} // namespace capart::report

#endif // CAPART_REPORT_REPORT_HH
