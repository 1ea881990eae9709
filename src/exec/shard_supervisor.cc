/**
 * @file
 * Implementation of the process-isolated shard supervisor and worker
 * loop declared in shard_supervisor.hh. POSIX-only (posix_spawn,
 * waitpid, kill), and so is everything that links capart_exec.
 */

#include "exec/shard_supervisor.hh"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "common/logging.hh"
#include "common/util.hh"
#include "exec/result_cache.hh"
#include "fault/process_chaos.hh"
#include "obs/metrics.hh"
#include "obs/run_ledger.hh"
#include "obs/status.hh"
#include "obs/trace.hh"

extern char **environ;

namespace capart::exec
{
namespace
{

using Clock = std::chrono::steady_clock;

/** Interval between refreshes of the live status.json. */
constexpr std::chrono::milliseconds kStatusPeriod{500};

std::uintmax_t
fileSizeOr0(const std::string &path)
{
    std::error_code ec;
    const std::uintmax_t n = std::filesystem::file_size(path, ec);
    return ec ? 0 : n;
}

/**
 * What one shard's segment says has happened so far, filtered to the
 * current base seed (a stale segment from a sweep with another seed
 * must not fast-forward this one). The same digest drives both sides:
 * the worker uses it to skip finished/quarantined points on respawn,
 * the supervisor to identify the culprit a dead worker was computing
 * (the dangling `point_start`) and how many attempts it has burned.
 */
struct SegmentState
{
    std::unordered_set<std::uint64_t> done;   ///< complete `point` records
    std::unordered_set<std::uint64_t> failed; ///< quarantined specs
    std::unordered_map<std::uint64_t, unsigned> starts; ///< attempts used
    /** `point` records replayed from the user-level cache. */
    std::uint64_t cachedPoints = 0;
    /** The dangling `point_start` (0 when every started point settled):
     *  what the worker is computing right now — or died inside. */
    std::uint64_t currentHash = 0;
    std::string currentSpec;
    double currentTsMs = 0.0;

    /** Attempts burned beyond each started point's first. */
    std::uint64_t
    retries() const
    {
        std::uint64_t n = 0;
        for (const auto &[h, c] : starts)
            n += c > 0 ? c - 1 : 0;
        return n;
    }
};

SegmentState
readSegmentState(const std::string &path, std::uint64_t seed)
{
    SegmentState st;
    const obs::RunLedger::LoadResult loaded = obs::RunLedger::load(path);
    for (const obs::RunRecord &rec : loaded.records) {
        if (rec.seed != seed)
            continue;
        if (rec.kind == "point") {
            st.done.insert(rec.specHash);
            if (rec.fromCache)
                ++st.cachedPoints;
            if (rec.specHash == st.currentHash)
                st.currentHash = 0;
        } else if (rec.kind == "point_failed") {
            st.failed.insert(rec.specHash);
            if (rec.specHash == st.currentHash)
                st.currentHash = 0;
        } else if (rec.kind == "point_start") {
            ++st.starts[rec.specHash];
            st.currentHash = rec.specHash;
            st.currentSpec = rec.spec;
            st.currentTsMs = rec.tsMs;
        }
    }
    if (st.currentHash != 0 && (st.done.count(st.currentHash) != 0 ||
                                st.failed.count(st.currentHash) != 0))
        st.currentHash = 0;
    return st;
}

/** Exponential backoff before respawn attempt number @p spawns + 1. */
Clock::duration
backoffDelay(double base_ms, unsigned spawns)
{
    const unsigned exp = spawns > 0 ? std::min(spawns - 1, 5u) : 0u;
    double d = base_ms * static_cast<double>(1u << exp);
    d = std::min(d, 5000.0);
    return std::chrono::milliseconds(static_cast<long>(d));
}

double
backoffBaseMs()
{
    if (const char *env = std::getenv("CAPART_SHARD_BACKOFF_MS")) {
        char *end = nullptr;
        const double v = std::strtod(env, &end);
        if (end != env && v >= 0.0)
            return v;
    }
    return 200.0;
}

/**
 * End a shard worker, first writing its metrics and trace into its obs
 * directory — the one place a worker writes either: its counters stay
 * in that metrics.json, and the supervisor stitches the trace.
 */
[[noreturn]] void
exitWorker(const SweepRunnerOptions &opts, int code)
{
    if (obs::enabled() && !opts.obsDir.empty())
        writeObsFiles(opts.obsDir);
    std::exit(code);
}

void
countIf(const char *name, std::uint64_t n = 1)
{
    if (n > 0 && obs::enabled())
        obs::metrics().counter(name).inc(n);
}

/** One supervised worker process and its retry bookkeeping. */
struct ShardState
{
    unsigned id = 0;
    pid_t pid = -1;
    /** Every assigned point is complete or quarantined. */
    bool settled = false;
    /** Waiting out a backoff delay before the next spawn. */
    bool pendingRespawn = false;
    unsigned spawns = 0;
    /** Consecutive failures with neither a culprit point nor segment
     *  progress — the worker is dying before it reaches any point. */
    unsigned barren = 0;
    /** Workers SIGKILLed for exceeding the point timeout. */
    unsigned timeoutKills = 0;
    /** Worker deaths attributed to a crash (nonzero or early exit). */
    unsigned crashes = 0;
    std::uintmax_t sizeAtSpawn = 0;
    std::uintmax_t lastSize = 0;
    Clock::time_point lastBeat{};
    Clock::time_point respawnAt{};
    /** First spawn / settle times: the shard's wall-clock span. */
    Clock::time_point firstSpawnAt{};
    Clock::time_point settledAt{};
    bool everSpawned = false;
    bool settleStamped = false;
    std::vector<std::size_t> assigned; ///< indexes into the spec vector
};

} // namespace

unsigned
shardOf(std::uint64_t spec_hash, unsigned shards)
{
    return shards > 0 ? static_cast<unsigned>(spec_hash % shards) : 0;
}

static std::string
shardBase(const std::string &dir, const std::string &bench, unsigned shard)
{
    std::string base = dir;
    base += '/';
    base += bench.empty() ? "sweep" : bench;
    base += "-shard-";
    base += std::to_string(shard);
    return base;
}

std::string
shardSegmentPath(const std::string &dir, const std::string &bench,
                 unsigned shard)
{
    return shardBase(dir, bench, shard) + ".seg.jsonl";
}

std::string
shardResultsPath(const std::string &dir, const std::string &bench,
                 unsigned shard)
{
    return shardBase(dir, bench, shard) + ".results";
}

std::string
shardLogPath(const std::string &dir, const std::string &bench,
             unsigned shard)
{
    return shardBase(dir, bench, shard) + ".log";
}

// ---------------------------------------------------------- worker --

void
runShardWorker(const SweepRunnerOptions &opts,
               const std::vector<ExperimentSpec> &specs)
{
    const unsigned shards = opts.shards;
    const unsigned k = static_cast<unsigned>(opts.shardWorker);
    std::error_code ec;
    std::filesystem::create_directories(opts.ledgerDir, ec);
    const std::string seg_path =
        shardSegmentPath(opts.ledgerDir, opts.benchName, k);

    // Digest the segment an earlier attempt left *before* opening it
    // for append: complete and quarantined points fast-forward, a
    // dangling start means an attempt burned.
    const SegmentState prior = readSegmentState(seg_path, opts.baseSeed);
    obs::RunLedger segment(seg_path);
    ResultCache results(
        shardResultsPath(opts.ledgerDir, opts.benchName, k));
    // The user-level memoization cache (--cache-dir) is shared by all
    // shards: read-through before computing, write-back after. All
    // workers append to one file concurrently, which ResultCache's
    // per-line checksums make safe — a torn or interleaved line is
    // skipped on load, never misread.
    std::unique_ptr<ResultCache> user;
    if (!opts.cachePath.empty())
        user = std::make_unique<ResultCache>(opts.cachePath);
    const fault::ProcessChaos chaos = fault::ProcessChaos::fromEnv();

    SweepRunnerOptions wopts = opts;
    wopts.progress = nullptr; // the parent watches the segment grow
    wopts.ledger = nullptr;   // records target the segment explicitly

    for (const ExperimentSpec &spec : specs) {
        const std::uint64_t h = spec.hash();
        if (shardOf(h, shards) != k)
            continue;
        if (opts.stopFlag && *opts.stopFlag != 0)
            exitWorker(opts, 128 + static_cast<int>(*opts.stopFlag));
        if (prior.failed.count(h) != 0)
            continue; // quarantined by the supervisor: never retried
        SweepResult replay;
        if (prior.done.count(h) != 0 &&
            results.lookup(specCacheKey(spec, opts.baseSeed), &replay))
            continue; // finished by an earlier attempt: fast-forward

        const std::uint64_t key = specCacheKey(spec, opts.baseSeed);
        SweepResult cached;
        if (user && user->lookup(key, &cached)) {
            // Replay the user-cache hit as if computed: copy it into
            // this shard's results file (the merge reads only shard
            // files) and append the point record the merge expects.
            // No point_start — a replay executes nothing, so it can
            // neither hang nor burn a retry attempt. A crash between
            // the store and the append just replays again next spawn.
            countIf("exec.cache_hits");
            results.store(key, cached);
            cached.fromCache = true;
            segment.append(pointRecord(wopts, spec, cached, 0.0));
            continue;
        }

        unsigned attempt = 0;
        const auto it = prior.starts.find(h);
        if (it != prior.starts.end())
            attempt = it->second;

        // Durable liveness marker first: if this process dies inside
        // the point, the dangling start is how the supervisor learns
        // which point killed it and how many tries it has had.
        obs::RunRecord start;
        start.kind = "point_start";
        start.bench = opts.benchName;
        start.run = opts.runId;
        start.spec = spec.canonical();
        start.specHash = h;
        start.seed = opts.baseSeed;
        start.tsMs = unixMillisNow();
        start.metrics.emplace_back("attempt",
                                   static_cast<double>(attempt));
        start.metrics.emplace_back("shard", static_cast<double>(k));
        segment.append(start);

        chaos.atPointStart(h, attempt);
        const SweepResult r = computePoint(wopts, spec, &results, &segment);
        if (user)
            user->store(key, r);
        if (chaos.tearAfterPoint(h, attempt))
            fault::ProcessChaos::tearAndDie(seg_path);
    }
    exitWorker(opts, 0);
}

// ------------------------------------------------------ supervisor --

std::vector<SweepResult>
runShardedSweep(const SweepRunnerOptions &opts,
                const std::vector<ExperimentSpec> &specs)
{
    const unsigned shards = static_cast<unsigned>(std::min<std::size_t>(
        opts.shards, specs.size()));
    std::error_code ec;
    std::filesystem::create_directories(opts.ledgerDir, ec);
    // Initialize the shared user cache before any worker exists: a
    // worker that opens a missing/foreign file takes ResultCache's
    // truncate-and-rewrite path on first store, which would clobber
    // sibling workers' appends. With the header in place every worker
    // only ever appends, which is multi-process safe.
    if (!opts.cachePath.empty())
        ResultCache::initializeFile(opts.cachePath);

    const auto segPathOf = [&](unsigned k) {
        return shardSegmentPath(opts.ledgerDir, opts.benchName, k);
    };

    std::vector<ShardState> st(shards);
    std::vector<std::uint64_t> sweepHashes;
    sweepHashes.reserve(specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        sweepHashes.push_back(specs[i].hash());
        st[shardOf(sweepHashes.back(), shards)].assigned.push_back(i);
    }
    for (unsigned k = 0; k < shards; ++k)
        st[k].id = k;

    // ---- live status plane ------------------------------------------
    // Everything below the `statusOn` gate is observability *output*:
    // derived from segment digests the supervisor reads anyway, written
    // to side files nothing reads back. With observability disabled (or
    // no obs directory) not a single extra syscall runs.
    const bool statusOn = obs::enabled() && !opts.obsDir.empty();
    const double sweepStartTsMs = unixMillisNow();
    const Clock::time_point sweepStart = Clock::now();
    std::vector<SegmentState> segCache(shards);
    if (statusOn)
        std::filesystem::create_directories(opts.obsDir, ec);

    const auto shardStatusOf = [&](const ShardState &s) {
        obs::ShardStatus sh;
        sh.shard = s.id;
        sh.pid = s.pid > 0 ? static_cast<long>(s.pid) : -1;
        if (s.settled)
            sh.state = "settled";
        else if (s.pid > 0)
            sh.state = "running";
        else if (s.pendingRespawn)
            sh.state = "backoff";
        else
            sh.state = "idle";
        sh.pointsAssigned = s.assigned.size();
        const SegmentState &seg = segCache[s.id];
        for (const std::size_t idx : s.assigned) {
            const std::uint64_t h = sweepHashes[idx];
            if (seg.done.count(h) != 0)
                ++sh.pointsDone;
            else if (seg.failed.count(h) != 0)
                ++sh.pointsQuarantined;
        }
        sh.pointsFromCache = seg.cachedPoints;
        sh.retries = seg.retries();
        sh.spawns = s.spawns;
        sh.timeoutKills = s.timeoutKills;
        sh.crashes = s.crashes;
        if (s.pid > 0)
            sh.lastBeatAgeS = std::chrono::duration<double>(
                                  Clock::now() - s.lastBeat)
                                  .count();
        if (seg.currentHash != 0) {
            sh.currentSpec = seg.currentSpec;
            sh.currentSpecHash = seg.currentHash;
            sh.currentElapsedS =
                std::max(0.0, (unixMillisNow() - seg.currentTsMs) /
                                  1000.0);
        }
        return sh;
    };

    const auto writeStatus = [&](const std::string &state) {
        if (!statusOn)
            return;
        obs::SweepStatus ss;
        ss.bench = opts.benchName;
        ss.run = opts.runId;
        ss.state = state;
        ss.seed = opts.baseSeed;
        ss.shards = shards;
        ss.pointsTotal = specs.size();
        ss.startTsMs = sweepStartTsMs;
        ss.updatedTsMs = unixMillisNow();
        for (const ShardState &s : st) {
            obs::ShardStatus sh = shardStatusOf(s);
            ss.pointsDone += sh.pointsDone;
            ss.pointsFromCache += sh.pointsFromCache;
            ss.pointsQuarantined += sh.pointsQuarantined;
            ss.retries += sh.retries;
            ss.shardStates.push_back(std::move(sh));
        }
        const double elapsedMin =
            std::chrono::duration<double>(Clock::now() - sweepStart)
                .count() /
            60.0;
        if (ss.pointsDone > 0 && elapsedMin > 0.0)
            ss.throughputPointsPerMin =
                static_cast<double>(ss.pointsDone) / elapsedMin;
        const std::uint64_t settled = ss.pointsDone + ss.pointsQuarantined;
        if (ss.throughputPointsPerMin > 0.0 && settled < ss.pointsTotal)
            ss.etaS = static_cast<double>(ss.pointsTotal - settled) /
                      ss.throughputPointsPerMin * 60.0;
        else if (settled >= ss.pointsTotal)
            ss.etaS = 0.0;
        if (ss.pointsDone > 0)
            ss.cacheHitRate = static_cast<double>(ss.pointsFromCache) /
                              static_cast<double>(ss.pointsDone);
        obs::writeStatusFile(opts.obsDir + "/status.json", ss);
    };

    if (!opts.resumeShards) {
        for (unsigned k = 0; k < shards; ++k) {
            std::filesystem::remove(segPathOf(k), ec);
            std::filesystem::remove(
                shardResultsPath(opts.ledgerDir, opts.benchName, k), ec);
            std::filesystem::remove(
                shardLogPath(opts.ledgerDir, opts.benchName, k), ec);
        }
    }

    const double backoff_base = backoffBaseMs();

    const auto allSettled = [&](const ShardState &s,
                                const SegmentState &seg) {
        for (const std::size_t idx : s.assigned) {
            const std::uint64_t h = sweepHashes[idx];
            if (seg.done.count(h) == 0 && seg.failed.count(h) == 0)
                return false;
        }
        return true;
    };

    const auto quarantine = [&](const ShardState &s, std::size_t idx,
                                const char *reason, unsigned attempts) {
        obs::RunLedger seg(segPathOf(s.id));
        obs::RunRecord rec;
        rec.kind = "point_failed";
        rec.bench = opts.benchName;
        rec.run = opts.runId;
        rec.spec = specs[idx].canonical();
        rec.specHash = sweepHashes[idx];
        rec.seed = opts.baseSeed;
        rec.tsMs = unixMillisNow();
        rec.rule = reason;
        rec.metrics.emplace_back("attempts",
                                 static_cast<double>(attempts));
        rec.metrics.emplace_back("shard", static_cast<double>(s.id));
        seg.append(rec);
        segCache[s.id].failed.insert(sweepHashes[idx]);
        capart_warn("shard " << s.id << ": quarantined point "
                             << specs[idx].canonical() << " after "
                             << attempts << " attempt(s) [" << reason
                             << "]");
        countIf("exec.points_quarantined");
        obs::tracer().instant(
            "shard.quarantine", "shard", obs::tracer().wallUs(),
            {{"shard", static_cast<double>(s.id)},
             {"attempts", static_cast<double>(attempts)}},
            obs::Track::Host);
    };

    const auto spawnShard = [&](ShardState &s) {
        std::vector<std::string> args = opts.workerCmd;
        // The clamped count, not opts.shards: workers partition by
        // hash % shards, and both sides must use the same modulus or
        // points with hash % opts.shards >= shards would never be
        // assigned to any worker.
        args.push_back("--shards=" + std::to_string(shards));
        args.push_back("--shard-worker=" + std::to_string(s.id));
        args.push_back("--ledger-dir=" + opts.ledgerDir);
        if (statusOn)
            args.push_back("--obs-dir=" + shardObsDir(opts.obsDir, s.id));
        std::vector<char *> argv;
        argv.reserve(args.size() + 1);
        for (std::string &a : args)
            argv.push_back(a.data());
        argv.push_back(nullptr);

        const std::string log =
            shardLogPath(opts.ledgerDir, opts.benchName, s.id);
        posix_spawn_file_actions_t fa;
        posix_spawn_file_actions_init(&fa);
        posix_spawn_file_actions_addopen(
            &fa, 1, log.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
        posix_spawn_file_actions_adddup2(&fa, 1, 2);
        pid_t pid = -1;
        const int rc = posix_spawn(&pid, argv[0], &fa, nullptr,
                                   argv.data(), environ);
        posix_spawn_file_actions_destroy(&fa);
        s.pendingRespawn = false;
        ++s.spawns;
        if (rc != 0) {
            capart_warn("shard " << s.id << ": posix_spawn failed: "
                                 << std::strerror(rc));
            s.pid = -1;
            return false;
        }
        s.pid = pid;
        s.sizeAtSpawn = fileSizeOr0(segPathOf(s.id));
        s.lastSize = s.sizeAtSpawn;
        s.lastBeat = Clock::now();
        if (!s.everSpawned) {
            s.everSpawned = true;
            s.firstSpawnAt = s.lastBeat;
        }
        countIf("exec.shard_spawns");
        // First spawn vs respawn get distinct instants so a stitched
        // trace shows recovery churn at a glance.
        if (s.spawns > 1)
            obs::tracer().instant(
                "shard.respawn", "shard", obs::tracer().wallUs(),
                {{"shard", static_cast<double>(s.id)},
                 {"spawn", static_cast<double>(s.spawns)}},
                obs::Track::Host);
        else
            obs::tracer().instant(
                "shard.spawn", "shard", obs::tracer().wallUs(),
                {{"shard", static_cast<double>(s.id)},
                 {"pid", static_cast<double>(pid)}},
                obs::Track::Host);
        return true;
    };

    /**
     * A worker died (nonzero exit, SIGKILLed for a hang, or exited
     * without finishing): decide quarantine vs. respawn. The culprit is
     * the unfinished point with a dangling `point_start`; its start
     * count is the attempts it has burned.
     */
    const auto onFailure = [&](ShardState &s, const char *reason) {
        SegmentState seg = readSegmentState(segPathOf(s.id),
                                            opts.baseSeed);
        segCache[s.id] = seg;
        if (std::strcmp(reason, "crash") == 0) {
            ++s.crashes;
            obs::tracer().instant(
                "shard.crash", "shard", obs::tracer().wallUs(),
                {{"shard", static_cast<double>(s.id)}},
                obs::Track::Host);
        }
        if (allSettled(s, seg)) {
            s.settled = true;
            return;
        }
        bool found = false;
        std::size_t culprit = 0;
        unsigned tries = 0;
        for (const std::size_t idx : s.assigned) {
            const std::uint64_t h = sweepHashes[idx];
            if (seg.done.count(h) != 0 || seg.failed.count(h) != 0)
                continue;
            const auto it = seg.starts.find(h);
            if (it != seg.starts.end() &&
                (!found || it->second > tries)) {
                found = true;
                culprit = idx;
                tries = it->second;
            }
        }
        const bool progressed =
            fileSizeOr0(segPathOf(s.id)) > s.sizeAtSpawn;
        if (found) {
            s.barren = 0;
            if (tries > opts.maxRetries) {
                quarantine(s, culprit, reason, tries);
                seg.failed.insert(sweepHashes[culprit]);
                if (allSettled(s, seg)) {
                    s.settled = true;
                    return;
                }
            }
        } else if (progressed) {
            s.barren = 0;
        } else {
            // Dying before reaching any point: the shard itself is
            // broken (bad binary, bad environment). Bounded like a
            // point, then everything left is quarantined — a sweep
            // must end, never spin.
            ++s.barren;
            if (s.barren > opts.maxRetries) {
                for (const std::size_t idx : s.assigned) {
                    const std::uint64_t h = sweepHashes[idx];
                    if (seg.done.count(h) == 0 &&
                        seg.failed.count(h) == 0)
                        quarantine(s, idx, "shard_failed", s.barren);
                }
                s.settled = true;
                return;
            }
        }
        countIf("exec.shard_retries");
        s.pendingRespawn = true;
        s.respawnAt =
            Clock::now() + backoffDelay(backoff_base, s.spawns);
    };

    // ---- initial spawn ----------------------------------------------
    for (ShardState &s : st) {
        if (s.assigned.empty()) {
            s.settled = true;
            continue;
        }
        if (opts.resumeShards) {
            const SegmentState seg =
                readSegmentState(segPathOf(s.id), opts.baseSeed);
            if (allSettled(s, seg)) {
                s.settled = true;
                continue;
            }
        }
        if (!spawnShard(s)) {
            s.pendingRespawn = true;
            s.respawnAt =
                Clock::now() + backoffDelay(backoff_base, s.spawns);
        }
    }

    // ---- supervision loop -------------------------------------------
    bool interrupted = false;
    int stop_sig = 0;
    std::vector<std::size_t> doneCounts(shards, 0);
    std::size_t reportedDone = 0;
    Clock::time_point nextStatusAt = Clock::now();

    while (true) {
        if (opts.stopFlag && *opts.stopFlag != 0) {
            interrupted = true;
            stop_sig = static_cast<int>(*opts.stopFlag);
            // Graceful first: SIGTERM, a short grace period, SIGKILL.
            for (ShardState &s : st)
                if (s.pid > 0)
                    kill(s.pid, SIGTERM);
            const auto deadline =
                Clock::now() + std::chrono::seconds(2);
            bool alive = true;
            while (alive && Clock::now() < deadline) {
                alive = false;
                for (ShardState &s : st) {
                    if (s.pid <= 0)
                        continue;
                    int status = 0;
                    if (waitpid(s.pid, &status, WNOHANG) == s.pid)
                        s.pid = -1;
                    else
                        alive = true;
                }
                if (alive)
                    std::this_thread::sleep_for(
                        std::chrono::milliseconds(20));
            }
            for (ShardState &s : st) {
                if (s.pid <= 0)
                    continue;
                kill(s.pid, SIGKILL);
                int status = 0;
                waitpid(s.pid, &status, 0);
                s.pid = -1;
            }
            break;
        }

        bool any_active = false;
        for (ShardState &s : st) {
            if (s.settled)
                continue;

            if (s.pid > 0) {
                int status = 0;
                const pid_t r = waitpid(s.pid, &status, WNOHANG);
                if (r == s.pid) {
                    s.pid = -1;
                    const bool clean = WIFEXITED(status) &&
                                       WEXITSTATUS(status) == 0;
                    if (clean) {
                        const SegmentState seg = readSegmentState(
                            segPathOf(s.id), opts.baseSeed);
                        segCache[s.id] = seg;
                        if (allSettled(s, seg))
                            s.settled = true;
                        else
                            onFailure(s, "crash");
                    } else {
                        onFailure(s, "crash");
                    }
                }
            }

            if (s.pid > 0) {
                // Liveness is the segment itself: each point append is
                // a heartbeat. No growth within the timeout means the
                // current point hung — SIGKILL and treat as a failure
                // of that (dangling-start) point.
                const std::uintmax_t size =
                    fileSizeOr0(segPathOf(s.id));
                if (size > s.lastSize) {
                    s.lastSize = size;
                    s.lastBeat = Clock::now();
                    const SegmentState seg = readSegmentState(
                        segPathOf(s.id), opts.baseSeed);
                    segCache[s.id] = seg;
                    std::size_t n = 0;
                    for (const std::size_t idx : s.assigned) {
                        const std::uint64_t h = sweepHashes[idx];
                        if (seg.done.count(h) != 0 ||
                            seg.failed.count(h) != 0)
                            ++n;
                    }
                    doneCounts[s.id] = n;
                } else if (opts.pointTimeoutS > 0.0 &&
                           std::chrono::duration<double>(
                               Clock::now() - s.lastBeat)
                                   .count() > opts.pointTimeoutS) {
                    capart_warn("shard "
                                << s.id << ": no progress for "
                                << opts.pointTimeoutS
                                << "s, killing hung worker (pid "
                                << s.pid << ")");
                    kill(s.pid, SIGKILL);
                    int status = 0;
                    waitpid(s.pid, &status, 0);
                    s.pid = -1;
                    ++s.timeoutKills;
                    countIf("exec.shard_timeouts");
                    obs::tracer().instant(
                        "shard.timeout_kill", "shard",
                        obs::tracer().wallUs(),
                        {{"shard", static_cast<double>(s.id)}},
                        obs::Track::Host);
                    onFailure(s, "timeout");
                }
            }

            if (!s.settled && s.pid <= 0) {
                if (!s.pendingRespawn) {
                    // Defensive: never strand an unsettled shard.
                    s.pendingRespawn = true;
                    s.respawnAt = Clock::now();
                }
                if (Clock::now() >= s.respawnAt && !spawnShard(s)) {
                    ++s.barren;
                    if (s.barren > opts.maxRetries) {
                        const SegmentState seg = readSegmentState(
                            segPathOf(s.id), opts.baseSeed);
                        for (const std::size_t idx : s.assigned) {
                            const std::uint64_t h = sweepHashes[idx];
                            if (seg.done.count(h) == 0 &&
                                seg.failed.count(h) == 0)
                                quarantine(s, idx, "shard_failed",
                                           s.barren);
                        }
                        s.settled = true;
                    } else {
                        s.pendingRespawn = true;
                        s.respawnAt = Clock::now() +
                                      backoffDelay(backoff_base,
                                                   s.spawns);
                    }
                }
            }

            if (!s.settled)
                any_active = true;
            else
                doneCounts[s.id] = s.assigned.size();

            if (s.settled && !s.settleStamped) {
                s.settleStamped = true;
                s.settledAt = Clock::now();
                obs::tracer().instant(
                    "shard.settled", "shard", obs::tracer().wallUs(),
                    {{"shard", static_cast<double>(s.id)}},
                    obs::Track::Host);
            }
        }

        if (statusOn && Clock::now() >= nextStatusAt) {
            writeStatus("running");
            nextStatusAt = Clock::now() + kStatusPeriod;
        }

        if (opts.progress) {
            std::size_t total_done = 0;
            for (const std::size_t n : doneCounts)
                total_done += n;
            total_done = std::min(total_done, specs.size());
            if (total_done > reportedDone) {
                reportedDone = total_done;
                opts.progress(total_done, specs.size());
            }
        }

        if (!any_active)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }

    // ---- merge segments into the canonical ledger -------------------
    std::vector<std::string> seg_paths;
    seg_paths.reserve(shards);
    for (unsigned k = 0; k < shards; ++k)
        seg_paths.push_back(segPathOf(k));
    obs::MergeOptions mo;
    mo.filterSeed = true;
    mo.expectedSeed = opts.baseSeed;
    mo.specFilter = sweepHashes;
    const obs::MergeResult merged = obs::mergeLedgerSegments(seg_paths, mo);
    countIf("exec.merge_torn_lines", merged.tornLines);
    countIf("exec.merge_duplicates_dropped", merged.duplicatesDropped);

    std::unordered_set<std::uint64_t> quarantined;
    std::unordered_set<std::uint64_t> mergedPoints;
    for (const obs::RunRecord &rec : merged.records) {
        if (rec.kind == "point_failed")
            quarantined.insert(rec.specHash);
        else if (rec.kind == "point")
            mergedPoints.insert(rec.specHash);
    }

    if (opts.ledger) {
        // Segments carry worker run ids (and, across a resume, several
        // of them); the canonical ledger gets every record under the
        // supervisor's single run id so the report layer groups the
        // whole sweep as one run.
        for (obs::RunRecord rec : merged.records) {
            rec.run = opts.runId;
            rec.bench = opts.benchName;
            opts.ledger->append(rec);
        }
    }

    // Refresh every digest from disk so the final status and the
    // per-shard records below agree exactly with the merged ledger —
    // the supervision loop's cache can trail the last writes.
    if (statusOn || opts.ledger) {
        for (unsigned k = 0; k < shards; ++k)
            segCache[k] = readSegmentState(segPathOf(k), opts.baseSeed);
    }

    if (opts.ledger) {
        // The fleet record: one `shard` record per shard carrying the
        // tally the final status.json shows (spawns, retries, kills,
        // quarantines), which bench_report's shard table and the
        // dashboard's fleet section render. Deterministic given the
        // same sweep and chaos schedule, so the canonical ledger's
        // record set does not depend on whether the live status plane
        // was armed.
        for (const ShardState &s : st) {
            const obs::ShardStatus sh = shardStatusOf(s);
            obs::RunRecord rec;
            rec.kind = "shard";
            rec.bench = opts.benchName;
            rec.run = opts.runId;
            rec.seed = opts.baseSeed;
            rec.tsMs = unixMillisNow();
            if (s.everSpawned) {
                const Clock::time_point end =
                    s.settleStamped ? s.settledAt : Clock::now();
                rec.wallMs = std::chrono::duration<double, std::milli>(
                                 end - s.firstSpawnAt)
                                 .count();
            }
            auto &m = rec.metrics;
            m.emplace_back("shard", static_cast<double>(sh.shard));
            m.emplace_back("points_assigned",
                           static_cast<double>(sh.pointsAssigned));
            m.emplace_back("points_done",
                           static_cast<double>(sh.pointsDone));
            m.emplace_back("points_from_cache",
                           static_cast<double>(sh.pointsFromCache));
            m.emplace_back("points_quarantined",
                           static_cast<double>(sh.pointsQuarantined));
            m.emplace_back("retries", static_cast<double>(sh.retries));
            m.emplace_back("spawns", static_cast<double>(sh.spawns));
            m.emplace_back("timeout_kills",
                           static_cast<double>(sh.timeoutKills));
            m.emplace_back("crashes", static_cast<double>(sh.crashes));
            opts.ledger->append(rec);
        }
    }

    if (interrupted) {
        if (opts.ledger) {
            obs::RunRecord rec;
            rec.kind = "run_interrupted";
            rec.bench = opts.benchName;
            rec.run = opts.runId;
            rec.seed = opts.baseSeed;
            rec.tsMs = unixMillisNow();
            rec.rule = stop_sig == SIGINT ? "SIGINT" : "SIGTERM";
            opts.ledger->append(rec);
        }
        obs::tracer().instant("sweep.interrupted", "shard",
                              obs::tracer().wallUs(), {},
                              obs::Track::Host);
        writeStatus("interrupted");
        capart_inform("sweep interrupted: merged "
                      << merged.records.size()
                      << " completed record(s); resume with --resume");
        // Exit through atexit so the bench exporters flush; the
        // standard 128+signal code tells callers what stopped us.
        std::exit(128 + stop_sig);
    }

    writeStatus("complete");

    // ---- assemble results in spec order -----------------------------
    std::vector<SweepResult> results(specs.size());
    std::vector<std::unique_ptr<ResultCache>> caches(shards);
    std::uint64_t recomputed = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const unsigned k = shardOf(sweepHashes[i], shards);
        if (!caches[k])
            caches[k] = std::make_unique<ResultCache>(
                shardResultsPath(opts.ledgerDir, opts.benchName, k));
        if (caches[k]->lookup(specCacheKey(specs[i], opts.baseSeed),
                              &results[i])) {
            // Computed by this sweep (in a worker), not replayed from a
            // user-level cache: report it as fresh.
            results[i].fromCache = false;
            continue;
        }
        if (quarantined.count(sweepHashes[i]) != 0) {
            results[i] = SweepResult{};
            results[i].failed = true;
            continue;
        }
        // Segment said done but the results file lost the entry
        // (corrupt line): recompute inline — never return garbage.
        // The merge already appended this spec's `point` record to the
        // canonical ledger in the usual case; only ledger the recompute
        // when the segment lost the record too, so no spec ever gets
        // duplicate `point` records under one run id.
        ++recomputed;
        results[i] = computePoint(
            opts, specs[i], caches[k].get(),
            mergedPoints.count(sweepHashes[i]) != 0 ? nullptr
                                                    : opts.ledger);
    }
    countIf("exec.shard_result_misses", recomputed);
    if (opts.progress)
        opts.progress(specs.size(), specs.size());
    return results;
}

} // namespace capart::exec
