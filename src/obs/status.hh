/**
 * @file
 * Live sweep status plane: the supervisor-maintained `status.json`
 * snapshot, a sharded sweep's only live fleet file.
 *
 * While a sharded sweep runs with an obs directory (`--obs-dir=D`),
 * the supervisor keeps `D/status.json` fresh on every heartbeat tick:
 * a single JSON document (@ref SweepStatus) describing the whole
 * fleet — per shard the worker pid, lifecycle state, point counts
 * (done / from-cache / quarantined), retries, last-heartbeat age, and
 * the point currently being computed with its elapsed time;
 * sweep-wide the throughput in points/min, the ETA, and the cache-hit
 * rate. The file is *atomically replaced* (write `<F>.tmp`, then
 * rename), so a concurrent reader — the `bench_status` CLI, a scraper,
 * `cat` in a loop — always sees a complete document, never a torn
 * one. Counters live in the supervisor's `D/metrics.json` and each
 * worker's `D/shard-<k>/metrics.json`, written on exit.
 *
 * Everything here is observability *output*: nothing reads the file
 * back into the simulation, so the plane cannot perturb results — the
 * same contract as the rest of src/obs, and the property
 * tests/test_shard.cc locks down bit-for-bit. Under CAPART_OBS=OFF the
 * supervisor's write sites are dead code and the file is never
 * created.
 */

#ifndef CAPART_OBS_STATUS_HH
#define CAPART_OBS_STATUS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace capart
{
struct Json;
}

namespace capart::obs
{

/** One supervised shard's live state inside a @ref SweepStatus. After
 *  the merge the supervisor also ledgers each shard's final counts as a
 *  `shard` record, the fleet record reports and dashboards render. */
struct ShardStatus
{
    unsigned shard = 0;
    /** Worker pid (-1 while not running). */
    long pid = -1;
    /** "running", "backoff" (waiting out a respawn delay), "settled"
     *  (every assigned point complete or quarantined), or "idle"
     *  (nothing assigned). */
    std::string state = "idle";
    std::uint64_t pointsAssigned = 0;
    /** Complete `point` records in the shard's segment. */
    std::uint64_t pointsDone = 0;
    /** Of those, replayed from the user-level result cache. */
    std::uint64_t pointsFromCache = 0;
    std::uint64_t pointsQuarantined = 0;
    /** Point re-attempts: `point_start` records beyond each point's
     *  first (the quantity a segment digest can recompute exactly). */
    std::uint64_t retries = 0;
    /** Worker processes spawned for this shard so far. */
    std::uint64_t spawns = 0;
    /** Workers SIGKILLed for exceeding --point-timeout. */
    std::uint64_t timeoutKills = 0;
    /** Worker deaths attributed to a crash (nonzero exit). */
    std::uint64_t crashes = 0;
    /** Seconds since the segment last grew (-1 = no heartbeat yet). */
    double lastBeatAgeS = -1.0;
    /** Canonical spec of the point being computed ("" = between
     *  points); the dangling `point_start` of the segment. */
    std::string currentSpec;
    std::uint64_t currentSpecHash = 0;
    /** Seconds the current point has been running (0 when none). */
    double currentElapsedS = 0.0;
};

/** The whole fleet's live state: what `status.json` holds. */
struct SweepStatus
{
    /** Schema version of the document (bump on breaking change). */
    static constexpr int kVersion = 1;

    std::string bench;
    std::string run;
    /** "running", "complete", or "interrupted". */
    std::string state = "running";
    std::uint64_t seed = 0;
    unsigned shards = 0;
    std::uint64_t pointsTotal = 0;
    std::uint64_t pointsDone = 0;
    std::uint64_t pointsFromCache = 0;
    std::uint64_t pointsQuarantined = 0;
    std::uint64_t retries = 0;
    /** Unix epoch ms when the sweep started / this snapshot was cut. */
    double startTsMs = 0.0;
    double updatedTsMs = 0.0;
    /** Completed points per minute since the sweep started (0 until
     *  the first completion). */
    double throughputPointsPerMin = 0.0;
    /** Estimated seconds to completion (-1 = unknown). */
    double etaS = -1.0;
    /** pointsFromCache / pointsDone (0 when nothing done yet). */
    double cacheHitRate = 0.0;
    std::vector<ShardStatus> shardStates;
};

/** Serialize @p status as the status.json document. */
Json statusToJson(const SweepStatus &status);
std::string encodeStatus(const SweepStatus &status);

/** Parse a status.json document; false on schema mismatch. */
bool decodeStatus(const std::string &text, SweepStatus *out);

/**
 * Replace @p path atomically: write @p content to `<path>.tmp`, flush,
 * and rename over @p path. A reader opening @p path therefore sees
 * either the previous complete document or the new one — never a
 * partial write. Returns false (after a stderr note) on I/O failure.
 */
bool writeFileAtomic(const std::string &path, const std::string &content);

/** @ref writeFileAtomic of @ref encodeStatus. */
bool writeStatusFile(const std::string &path, const SweepStatus &status);

/** Load and decode @p path; false when missing or unparsable. */
bool readStatusFile(const std::string &path, SweepStatus *out);

} // namespace capart::obs

#endif // CAPART_OBS_STATUS_HH
