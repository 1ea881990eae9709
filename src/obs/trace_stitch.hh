/**
 * @file
 * Cross-process Chrome-trace stitching for sharded sweeps.
 *
 * A sharded sweep produces one Chrome trace per process: the
 * supervisor's own (spawn/kill/quarantine lifecycle instants) and one
 * per worker (`<obs-dir>/shard-<k>/trace.json`, see
 * exec::writeObsFiles). Each of those files uses the fixed two-pid
 * layout of obs::Tracer (pid 1 = simulated time, pid 2 = host wall
 * clock), so opened together they collide. @ref stitchTraces merges
 * them into one well-formed timeline:
 *
 *  - source i's pids are remapped to 2*i+1 / 2*i+2, so every process
 *    track in the stitched file is unique;
 *  - each source contributes `process_name` metadata ("<label> ·
 *    simulated time (us)", "<label> · host wall clock") and a
 *    `process_sort_index`, so Perfetto shows the supervisor first and
 *    the shards in order, each with both clock domains preserved;
 *  - events are globally sorted by timestamp;
 *  - a torn or missing source file (a worker SIGKILLed mid-export) is
 *    tolerated: it is skipped and counted in the stitched metadata
 *    (`sources_missing` / `sources_malformed`), never fails the merge.
 *
 * The result opens as a single view in ui.perfetto.dev or
 * chrome://tracing: an 8-shard sweep is one page, with the
 * supervisor's lifecycle instants lined up against the workers' point
 * spans on a shared wall-clock axis.
 */

#ifndef CAPART_OBS_TRACE_STITCH_HH
#define CAPART_OBS_TRACE_STITCH_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace capart::obs
{

/** One per-process trace file feeding a stitch. */
struct StitchSource
{
    /** Chrome-trace JSON file as written by Tracer::writeChromeTrace. */
    std::string path;
    /** Track label, e.g. "supervisor" or "shard 3". */
    std::string label;
};

/** What a stitch consumed and produced (mirrored into the output's
 *  `metadata` object). */
struct StitchStats
{
    unsigned sourcesRead = 0;
    unsigned sourcesMissing = 0;
    unsigned sourcesMalformed = 0;
    std::uint64_t events = 0;
    /** Sum of the sources' own `dropped_events` counts. */
    std::uint64_t droppedEvents = 0;
};

/**
 * Merge @p sources into one Chrome trace on @p os. Missing/unreadable
 * and unparsable sources are skipped and counted, so the output is
 * well-formed whenever at least the document frame can be written.
 * Returns false only when *no* source could be read (the stitched
 * file would be empty of events) — the frame is still written.
 */
bool stitchTraces(const std::vector<StitchSource> &sources,
                  std::ostream &os, StitchStats *stats = nullptr);

/** @ref stitchTraces into @p out_path via an atomic replace. */
bool stitchTraceFiles(const std::vector<StitchSource> &sources,
                      const std::string &out_path,
                      StitchStats *stats = nullptr);

} // namespace capart::obs

#endif // CAPART_OBS_TRACE_STITCH_HH
