/**
 * @file
 * Append-only JSONL run ledger: the durable record every experiment
 * run leaves behind.
 *
 * One ledger is one file of newline-delimited JSON records. Three kinds
 * of record are written:
 *
 *  - `point`  — one @ref capart::exec::SweepRunner sweep point: the
 *    spec's canonical encoding and hash, the base seed, host wall time,
 *    simulated time, cache provenance, and the point's headline figures
 *    (FG slowdown, BG throughput, energy deltas) as a flat name→value
 *    metric map; when attribution sampling was on, also a pointer to
 *    the point's attribution side file (`attr_file`), which holds the
 *    point's partitioner decision journal;
 *  - `run_interrupted` — the run was stopped by SIGTERM/SIGINT after
 *    flushing everything completed so far; `rule` names the signal;
 *  - `bench`  — one bench-binary invocation: its total wall time.
 *    (Older ledgers' bench records also carry a `counters` object, a
 *    copy of metrics.json's counters; decode() ignores it.)
 *
 * Five retired kinds are still read, never written: `decision` and
 * `npartition_decision`, per-decision copies of the side-file journal,
 * and `point_start`, `point_failed` and `shard`, the bookkeeping of the
 * deleted process-sharded sweep. decode() accepts them so older ledgers
 * load with nothing skipped; the report layer ignores them.
 *
 * Records carry a `run` id (bench + seed + start timestamp) so a single
 * growing ledger holds the full trajectory of repeated runs; the report
 * layer (src/report) groups by that id and pairs points across runs by
 * spec hash. Writes are crash-safe line-at-a-time: each record is
 * serialized whole, written with one call, and flushed, so a killed run
 * can truncate at most the final line — which load() tolerates by
 * skipping anything that does not parse.
 *
 * The ledger is observability *output*, never input: nothing in the
 * simulator reads it, so ledger recording cannot perturb results (the
 * same contract as the rest of src/obs). It works with observability
 * off.
 */

#ifndef CAPART_OBS_RUN_LEDGER_HH
#define CAPART_OBS_RUN_LEDGER_HH

#include <cstdint>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace capart::obs
{

/** One ledger line; plain data, serializable both ways. */
struct RunRecord
{
    /** "point" (sweep point), "bench" (binary invocation) or
     *  "run_interrupted" (signal-terminated run); older ledgers also
     *  hold the retired kinds listed in the file comment. */
    std::string kind = "point";
    /** Bench the record belongs to (e.g. "fig13_dynamic"). */
    std::string bench;
    /** Invocation id shared by every record of one run. */
    std::string run;
    /** Canonical ExperimentSpec encoding ("" for bench records). */
    std::string spec;
    /** FNV-1a hash of the spec (0 for bench records). */
    std::uint64_t specHash = 0;
    /** Base seed of the run (spec seeds derive from it). */
    std::uint64_t seed = 0;
    /** Wall-clock unix epoch milliseconds when the record was made. */
    double tsMs = 0.0;
    /** Host milliseconds the unit of work took. */
    double wallMs = 0.0;
    /** Simulated seconds the unit covered (points only). */
    double simS = 0.0;
    /** The point was replayed from the on-disk result cache. */
    bool fromCache = false;
    /** Headline figures, flat name → value (insertion-ordered). */
    std::vector<std::pair<std::string, double>> metrics;
    /** Path of the point's attribution sample file ("" = none). */
    std::string attrFile;
    /** The rule a record names: an interruption's signal ("" for
     *  points and bench records). */
    std::string rule;

    /** Value of metric @p name, or @p fallback when absent. */
    double metric(const std::string &name, double fallback = 0.0) const;
};

/** Thread-safe appender plus tolerant loader; see file comment. */
class RunLedger
{
  public:
    /** Open @p path for appending (parent directory must exist). */
    explicit RunLedger(std::string path);

    /** Serialize @p rec as one line, write it whole, and flush. */
    void append(const RunRecord &rec);

    const std::string &path() const { return path_; }

    /** Records appended through this instance (not the file total). */
    std::uint64_t appended() const;

    /** The file opened successfully; append() is a no-op otherwise. */
    bool ok() const { return ok_; }

    /** Result of loading a ledger file. */
    struct LoadResult
    {
        std::vector<RunRecord> records;
        /** Lines skipped because they failed to parse (torn tails). */
        std::uint64_t skipped = 0;
    };

    /**
     * Read every parseable record of @p path in file order. Unparsable
     * lines — a truncated tail after a crash, foreign text — are
     * counted in `skipped`, never fatal. A missing file is simply an
     * empty ledger.
     */
    static LoadResult load(const std::string &path);

    /** Serialize / parse one record line (exposed for tests). */
    static std::string encode(const RunRecord &rec);
    static bool decode(const std::string &line, RunRecord *out);

  private:
    std::string path_;
    mutable std::mutex mutex_;
    std::ofstream file_;
    bool ok_ = false;
    std::uint64_t appended_ = 0;
};

} // namespace capart::obs

#endif // CAPART_OBS_RUN_LEDGER_HH
