/**
 * @file
 * Append-only JSONL run ledger: the durable record every experiment
 * run leaves behind.
 *
 * One ledger is one file of newline-delimited JSON records. Six kinds
 * of record are written:
 *
 *  - `point`  — one @ref capart::exec::SweepRunner sweep point: the
 *    spec's canonical encoding and hash, the base seed, host wall time,
 *    simulated time, cache provenance, and the point's headline figures
 *    (FG slowdown, BG throughput, energy deltas) as a flat name→value
 *    metric map; when attribution sampling was on, also a pointer to
 *    the point's attribution side file (`attr_file`), which holds the
 *    point's partitioner decision journal;
 *  - `bench`  — one bench-binary invocation: total wall time plus a
 *    snapshot of the observability counters at exit;
 *  - `point_start` — a shard worker is about to compute a point
 *    (attempt number in the metric map). Dangling starts — a start
 *    with no later `point` for the same spec hash — are how the shard
 *    supervisor identifies the point a crashed or hung worker died on.
 *    Worker-internal bookkeeping: mergeLedgerSegments() drops them;
 *  - `point_failed` — the supervisor quarantined a point that failed
 *    every retry; `rule` carries the reason ("crash", "timeout",
 *    "shard_failed"), the metric map the attempt count;
 *  - `run_interrupted` — the run was stopped by SIGTERM/SIGINT after
 *    flushing everything completed so far; `rule` names the signal;
 *  - `shard` — one supervised shard's lifetime summary, appended by
 *    the shard supervisor after the segment merge: shard index, wall
 *    time, and the fleet counters (points done / from-cache /
 *    quarantined, retries, spawns, timeout kills, crashes) in the
 *    metric map. The report layer renders these as the per-shard
 *    table.
 *
 * Two retired kinds are still read, never written: `decision` and
 * `npartition_decision`, per-decision copies of the side-file journal
 * that older ledgers hold. decode() accepts them so such ledgers load
 * with nothing skipped; the report layer ignores them.
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
 * same contract as the rest of src/obs). It stays functional under
 * CAPART_OBS=OFF — only the counter snapshots become empty.
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
    /** "point" (sweep point), "bench" (binary invocation),
     *  "point_start" (shard worker liveness), "point_failed"
     *  (quarantined point), "run_interrupted" (signal-terminated run),
     *  or "shard" (one supervised shard's lifetime summary); older
     *  ledgers also hold the retired "decision" and
     *  "npartition_decision". */
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
    /** Observability counter snapshot (bench records). */
    std::vector<std::pair<std::string, double>> counters;
    /** Path of the point's attribution sample file ("" = none). */
    std::string attrFile;
    /** The rule or reason a record names: a quarantine's cause, an
     *  interruption's signal ("" otherwise). */
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

// ------------------------------------------------- segment merging --

/** Knobs of @ref mergeLedgerSegments. */
struct MergeOptions
{
    /** When true, drop spec-carrying records whose seed differs from
     *  expectedSeed (stale segments from an earlier run with another
     *  seed must not poison a resumed sweep). */
    bool filterSeed = false;
    std::uint64_t expectedSeed = 0;
    /** When non-empty, keep only spec-carrying records whose hash is
     *  in this set (the sweep the supervisor actually scheduled). */
    std::vector<std::uint64_t> specFilter;
};

/** Outcome of folding shard segments into one canonical record set. */
struct MergeResult
{
    /** The merged records, in a deterministic order that depends only
     *  on record content — never on segment order or file position. */
    std::vector<RunRecord> records;
    /** Segment paths that did not exist (killed before first write). */
    std::uint64_t missingSegments = 0;
    /** Unparsable lines skipped across all segments (torn tails). */
    std::uint64_t tornLines = 0;
    /** Superseded duplicates dropped (retried points) and records
     *  filtered out by seed or spec: last-complete-wins keyed by spec
     *  hash. */
    std::uint64_t duplicatesDropped = 0;
    /** `point_failed` records surviving in the output (no complete
     *  point ever landed for that spec). */
    std::uint64_t quarantined = 0;
};

/**
 * Fold shard ledger segments into the canonical record set.
 *
 * Tolerates torn tails (skipped, counted), empty and missing segments,
 * duplicate records from retried points, and records interleaved from
 * several run ids (a sweep interrupted and resumed under a new id).
 * Per spec hash, the last complete `point` record wins — "last" judged
 * by (ts_ms, wall_ms, encoding), so the choice is deterministic and
 * independent of the order segments are listed or records appear.
 * `point_start` records are dropped (worker-internal), and
 * `point_failed` survives only while no complete point exists for its
 * spec. The output is sorted by (kind rank, spec hash, encoding):
 * permuting @p segment_paths cannot change a single output byte.
 */
MergeResult mergeLedgerSegments(const std::vector<std::string> &segment_paths,
                                const MergeOptions &opts = MergeOptions{});

} // namespace capart::obs

#endif // CAPART_OBS_RUN_LEDGER_HH
