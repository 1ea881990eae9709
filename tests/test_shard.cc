/**
 * @file
 * Tests for process-isolated shard execution (exec/shard_supervisor.hh)
 * and the crash-safe ledger-segment merge (obs/run_ledger.hh).
 *
 * The merge tests exercise every edge the supervisor must survive —
 * duplicate spec-hash records from retried points, torn tails, empty
 * and missing segments, records interleaved from several run ids —
 * and pin that the merged output is deterministic and independent of
 * segment order.
 *
 * The end-to-end tests spawn real worker processes: this binary links
 * its own main(), so when the supervisor re-executes it with
 * `--shard-worker=k` it becomes a worker computing the fixed test
 * sweep instead of running gtest. Chaos (crash-on-point, quarantine,
 * resume fast-forward) is injected through the CAPART_CHAOS_*
 * environment exactly as the chaos CI job does with bench binaries.
 *
 * The ShardStatus tests additionally give the supervisor an obs
 * directory, arming the live status plane (obs/status.hh): the final
 * status.json must agree exactly with the ledger segments the merge
 * reads, quarantines must reach the snapshot, the workers' traces
 * (written to their `shard-<k>` obs directories) must stitch with the
 * supervisor's lifecycle instants into one well-formed trace.json,
 * and — the non-perturbation contract — chaos-armed results with the
 * plane on must stay bit-identical to a plain in-process run.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "exec/experiment_spec.hh"
#include "exec/result_cache.hh"
#include "exec/shard_supervisor.hh"
#include "exec/sweep_runner.hh"
#include "obs/obs.hh"
#include "obs/run_ledger.hh"
#include "obs/status.hh"
#include "obs/trace.hh"

namespace capart::exec
{
// Named (not anonymous) namespace members: main() below needs to reach
// testSpecs()/kShardSeed when this binary runs as a shard worker.

constexpr double kShardScale = 0.02;
constexpr std::uint64_t kShardSeed = 7777;
constexpr const char *kShardBench = "shardtest";

/** The fixed sweep both supervisor and re-executed workers rebuild. */
std::vector<ExperimentSpec>
testSpecs()
{
    std::vector<ExperimentSpec> specs;
    for (const char *app :
         {"ferret", "dedup", "canneal", "fop", "batik", "429.mcf"})
        specs.push_back(soloSpec(app, 4, 12, kShardScale));
    return specs;
}

namespace
{

std::string
selfExe()
{
    char buf[4096];
    const ssize_t n = readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    buf[n > 0 ? n : 0] = '\0';
    return buf;
}

std::string
freshDir(const char *name)
{
    const std::string dir =
        (std::filesystem::temp_directory_path() / name).string();
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    return dir;
}

/** Set CAPART_CHAOS_* / backoff variables for one test body. */
class EnvGuard
{
  public:
    EnvGuard(
        std::initializer_list<std::pair<const char *, const char *>> kv)
    {
        for (const auto &[k, v] : kv) {
            keys_.emplace_back(k);
            setenv(k, v, 1);
        }
    }
    ~EnvGuard()
    {
        for (const std::string &k : keys_)
            unsetenv(k.c_str());
    }

  private:
    std::vector<std::string> keys_;
};

SweepRunnerOptions
supervisorOptions(const std::string &dir)
{
    SweepRunnerOptions o;
    o.baseSeed = kShardSeed;
    o.benchName = kShardBench;
    o.runId = "shardtest-run";
    o.shards = 3;
    o.ledgerDir = dir;
    o.workerCmd = {selfExe()};
    o.pointTimeoutS = 120.0;
    o.maxRetries = 2;
    return o;
}

bool
sameResult(const SweepResult &a, const SweepResult &b)
{
    if (a.time != b.time || a.socketEnergy != b.socketEnergy ||
        a.wallEnergy != b.wallEnergy || a.mpki != b.mpki ||
        a.apki != b.apki || a.ipc != b.ipc ||
        a.bgThroughput != b.bgThroughput || a.timedOut != b.timedOut)
        return false;
    for (int p = 0; p < 4; ++p) {
        const PolicyOutcome &x = a.policy[p];
        const PolicyOutcome &y = b.policy[p];
        if (x.present != y.present || x.fgSlowdown != y.fgSlowdown ||
            x.bgThroughput != y.bgThroughput ||
            x.energyVsSequential != y.energyVsSequential ||
            x.wallEnergyVsSequential != y.wallEnergyVsSequential ||
            x.weightedSpeedup != y.weightedSpeedup ||
            x.fgWays != y.fgWays)
            return false;
    }
    return true;
}

const std::vector<SweepResult> &
expectedResults()
{
    static const std::vector<SweepResult> expected = [] {
        SweepRunnerOptions serial;
        serial.baseSeed = kShardSeed;
        return SweepRunner(serial).run(testSpecs());
    }();
    return expected;
}

// ------------------------------------------------- merge edge cases --

obs::RunRecord
pointRec(std::uint64_t hash, const std::string &run, double ts_ms,
         double time_s)
{
    obs::RunRecord r;
    r.kind = "point";
    r.bench = kShardBench;
    r.run = run;
    r.spec = "spec-" + std::to_string(hash);
    r.specHash = hash;
    r.seed = kShardSeed;
    r.tsMs = ts_ms;
    r.wallMs = 1.0;
    r.simS = time_s;
    r.metrics.emplace_back("time_s", time_s);
    return r;
}

obs::RunRecord
startRec(std::uint64_t hash, const std::string &run, double ts_ms,
         unsigned attempt)
{
    obs::RunRecord r = pointRec(hash, run, ts_ms, 0.0);
    r.kind = "point_start";
    r.metrics = {{"attempt", static_cast<double>(attempt)}};
    return r;
}

obs::RunRecord
failedRec(std::uint64_t hash, const std::string &run, double ts_ms,
          unsigned attempts)
{
    obs::RunRecord r = pointRec(hash, run, ts_ms, 0.0);
    r.kind = "point_failed";
    r.rule = "crash";
    r.metrics = {{"attempts", static_cast<double>(attempts)}};
    return r;
}

void
writeSegment(const std::string &path,
             const std::vector<obs::RunRecord> &records)
{
    obs::RunLedger seg(path);
    for (const obs::RunRecord &r : records)
        seg.append(r);
}

std::string
encodeAll(const std::vector<obs::RunRecord> &records)
{
    std::string s;
    for (const obs::RunRecord &r : records) {
        s += obs::RunLedger::encode(r);
        s += '\n';
    }
    return s;
}

TEST(MergeLedger, LastCompleteWinsAcrossDuplicateSpecHashes)
{
    const std::string dir = freshDir("capart_merge_dup");
    // The same point completed twice (a retry after a torn write):
    // the later record must win, in whichever segment it sits.
    writeSegment(dir + "/a.jsonl", {pointRec(0x10, "run-a", 100, 1.0)});
    writeSegment(dir + "/b.jsonl", {pointRec(0x10, "run-b", 200, 2.0)});

    const obs::MergeResult m = obs::mergeLedgerSegments(
        {dir + "/a.jsonl", dir + "/b.jsonl"});
    ASSERT_EQ(m.records.size(), 1u);
    EXPECT_EQ(m.records[0].metric("time_s"), 2.0);
    EXPECT_EQ(m.duplicatesDropped, 1u);
    std::filesystem::remove_all(dir);
}

TEST(MergeLedger, OutputIndependentOfSegmentOrder)
{
    const std::string dir = freshDir("capart_merge_order");
    // Duplicates, interleaved run ids, and a quarantine spread across
    // three segments.
    writeSegment(dir + "/a.jsonl",
                 {startRec(0x1, "run-a", 10, 0),
                  pointRec(0x1, "run-a", 11, 1.5)});
    writeSegment(dir + "/b.jsonl",
                 {pointRec(0x1, "run-b", 20, 1.5),
                  startRec(0x2, "run-b", 21, 0),
                  failedRec(0x2, "run-b", 22, 3)});
    writeSegment(dir + "/c.jsonl", {pointRec(0x3, "run-a", 5, 9.0)});

    const std::vector<std::string> fwd = {
        dir + "/a.jsonl", dir + "/b.jsonl", dir + "/c.jsonl"};
    const std::vector<std::string> rev = {
        dir + "/c.jsonl", dir + "/b.jsonl", dir + "/a.jsonl"};
    const obs::MergeResult m1 = obs::mergeLedgerSegments(fwd);
    const obs::MergeResult m2 = obs::mergeLedgerSegments(rev);
    EXPECT_EQ(encodeAll(m1.records), encodeAll(m2.records));
    EXPECT_FALSE(m1.records.empty());
    std::filesystem::remove_all(dir);
}

TEST(MergeLedger, ToleratesTornEmptyAndMissingSegments)
{
    const std::string dir = freshDir("capart_merge_torn");
    writeSegment(dir + "/a.jsonl", {pointRec(0x7, "run-a", 50, 4.0)});
    {
        // The tail a worker killed mid-write leaves: half a record,
        // no newline.
        std::ofstream torn(dir + "/a.jsonl", std::ios::app);
        torn << "{\"v\":1,\"kind\":\"point\",\"bench\":\"torn";
    }
    { std::ofstream empty(dir + "/b.jsonl"); } // empty segment

    const obs::MergeResult m = obs::mergeLedgerSegments(
        {dir + "/a.jsonl", dir + "/b.jsonl", dir + "/missing.jsonl"});
    ASSERT_EQ(m.records.size(), 1u);
    EXPECT_EQ(m.records[0].specHash, 0x7u);
    EXPECT_EQ(m.tornLines, 1u);
    EXPECT_EQ(m.missingSegments, 1u);
    std::filesystem::remove_all(dir);
}

TEST(MergeLedger, QuarantineSurvivesOnlyWithoutCompletePoint)
{
    const std::string dir = freshDir("capart_merge_quar");
    // 0x1: failed then eventually completed (a resume succeeded) —
    // the completion supersedes the quarantine. 0x2: failed for good.
    writeSegment(dir + "/a.jsonl",
                 {startRec(0x1, "run-a", 1, 0),
                  failedRec(0x1, "run-a", 2, 3),
                  pointRec(0x1, "run-b", 90, 2.5),
                  startRec(0x2, "run-a", 3, 0),
                  failedRec(0x2, "run-a", 4, 3)});

    const obs::MergeResult m =
        obs::mergeLedgerSegments({dir + "/a.jsonl"});
    EXPECT_EQ(m.quarantined, 1u);
    bool saw_point1 = false, saw_failed2 = false;
    for (const obs::RunRecord &r : m.records) {
        if (r.specHash == 0x1)
            saw_point1 = r.kind == "point";
        if (r.specHash == 0x2)
            saw_failed2 = r.kind == "point_failed";
        EXPECT_NE(r.kind, "point_start"); // always worker-internal
    }
    EXPECT_TRUE(saw_point1);
    EXPECT_TRUE(saw_failed2);
    std::filesystem::remove_all(dir);
}

TEST(MergeLedger, SeedAndSpecFiltersDropStaleRecords)
{
    const std::string dir = freshDir("capart_merge_filter");
    obs::RunRecord stale = pointRec(0x1, "run-old", 5, 8.0);
    stale.seed = kShardSeed + 1; // an earlier sweep, different seed
    writeSegment(dir + "/a.jsonl",
                 {stale, pointRec(0x1, "run-a", 10, 1.0),
                  pointRec(0x999, "run-a", 11, 2.0)});

    obs::MergeOptions opts;
    opts.filterSeed = true;
    opts.expectedSeed = kShardSeed;
    opts.specFilter = {0x1};
    const obs::MergeResult m =
        obs::mergeLedgerSegments({dir + "/a.jsonl"}, opts);
    ASSERT_EQ(m.records.size(), 1u);
    EXPECT_EQ(m.records[0].specHash, 0x1u);
    EXPECT_EQ(m.records[0].metric("time_s"), 1.0);
    std::filesystem::remove_all(dir);
}

// ------------------------------------------------------- end to end --

TEST(ShardSweep, MatchesInProcessRunBitExactly)
{
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_clean");
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"}});
    SweepRunnerOptions o = supervisorOptions(dir);
    obs::RunLedger canonical(dir + "/canonical.jsonl");
    o.ledger = &canonical;
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << i;
        EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
    }

    // The canonical ledger holds exactly one point per spec, all under
    // the supervisor's run id.
    const auto loaded = obs::RunLedger::load(dir + "/canonical.jsonl");
    std::size_t points = 0;
    for (const obs::RunRecord &r : loaded.records) {
        if (r.kind == "point") {
            ++points;
            EXPECT_EQ(r.run, "shardtest-run");
        }
    }
    EXPECT_EQ(points, specs.size());
    std::filesystem::remove_all(dir);
}

TEST(ShardSweep, MoreShardsThanPointsClampsBothSides)
{
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_clamp");
    // More shards than points — the --shards=0 → hardware_concurrency
    // case on a small sweep. The supervisor clamps to specs.size() and
    // must hand workers the clamped count too: a worker partitioning
    // by the unclamped modulus would strand every point whose
    // hash % 64 lands outside the clamped range, and those points
    // would be quarantined as shard_failed instead of computed.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"}});
    SweepRunnerOptions o = supervisorOptions(dir);
    o.shards = 64;
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << i;
        EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(ShardSweep, WorkerCrashesAreRetriedBitExactly)
{
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_crash");
    // Every point with an even spec hash crashes its worker once; the
    // respawned worker fast-forwards and retries it successfully.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"},
                        {"CAPART_CHAOS_CRASH_MOD", "2"}});
    const std::vector<SweepResult> got =
        SweepRunner(supervisorOptions(dir)).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << i;
        EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(ShardSweep, ExhaustedRetriesQuarantineButNeverAbort)
{
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_quar");
    // Even-hash points crash on EVERY attempt: after maxRetries they
    // must be quarantined — and the sweep must still complete, with
    // every other point bit-exact.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"},
                        {"CAPART_CHAOS_CRASH_MOD", "2"},
                        {"CAPART_CHAOS_CRASH_ATTEMPTS", "99"}});
    SweepRunnerOptions o = supervisorOptions(dir);
    obs::RunLedger canonical(dir + "/canonical.jsonl");
    o.ledger = &canonical;
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    std::size_t quarantined = 0;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].hash() % 2 == 0) {
            EXPECT_TRUE(got[i].failed) << i;
            ++quarantined;
        } else {
            EXPECT_FALSE(got[i].failed) << i;
            EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
        }
    }
    ASSERT_GT(quarantined, 0u) << "test sweep has no even hashes";

    // Each quarantined point leaves a structured point_failed record
    // with the reason and attempt count.
    const auto loaded = obs::RunLedger::load(dir + "/canonical.jsonl");
    std::size_t failures = 0;
    for (const obs::RunRecord &r : loaded.records) {
        if (r.kind != "point_failed")
            continue;
        ++failures;
        EXPECT_EQ(r.rule, "crash");
        EXPECT_GE(r.metric("attempts"), 3.0);
    }
    EXPECT_EQ(failures, quarantined);
    std::filesystem::remove_all(dir);
}

TEST(ShardSweep, UserCacheReplaysIntoShardedRunUncorrupted)
{
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_usercache");
    const std::string cache_path = dir + "/user.cache";
    // Warm the user-level cache with a plain in-process sweep — the
    // --cache-dir file a user accumulated before going sharded.
    {
        SweepRunnerOptions warm;
        warm.baseSeed = kShardSeed;
        warm.cachePath = cache_path;
        SweepRunner(warm).run(specs);
    }

    // Sharded run over the warm cache, with chaos armed to crash
    // EVERY computed point on every attempt: completing bit-exactly
    // proves every worker resolved every point from the user cache —
    // the replay path skips the point_start where chaos fires, so a
    // single computed point would crash its worker to quarantine.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"},
                        {"CAPART_CHAOS_CRASH_MOD", "1"},
                        {"CAPART_CHAOS_CRASH_ATTEMPTS", "99"}});
    SweepRunnerOptions o = supervisorOptions(dir);
    o.cachePath = cache_path;
    o.workerCmd = {selfExe(), "--cache-path=" + cache_path};
    obs::RunLedger canonical(dir + "/canonical.jsonl");
    o.ledger = &canonical;
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << i;
        EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
    }

    // The per-shard segments must have stayed well-formed: no torn
    // lines, exactly one point per spec, every one flagged as a cache
    // replay.
    std::vector<std::string> segs;
    for (unsigned k = 0; k < 3; ++k)
        segs.push_back(dir + "/" + kShardBench + "-shard-" +
                       std::to_string(k) + ".seg.jsonl");
    const obs::MergeResult m = obs::mergeLedgerSegments(segs);
    EXPECT_EQ(m.tornLines, 0u);
    EXPECT_EQ(m.quarantined, 0u);
    std::size_t points = 0;
    for (const obs::RunRecord &r : m.records) {
        if (r.kind != "point")
            continue;
        ++points;
        EXPECT_TRUE(r.fromCache) << r.spec;
    }
    EXPECT_EQ(points, specs.size());

    // And the shared user-cache file itself survived the concurrent
    // worker traffic: every line still checksums, every spec decodes
    // to the expected result.
    ResultCache reread(cache_path);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SweepResult r;
        ASSERT_TRUE(reread.lookup(
            specCacheKey(specs[i], kShardSeed), &r))
            << i;
        EXPECT_TRUE(sameResult(expected[i], r)) << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(ShardSweep, ShardedRunWarmsUserCacheThroughRetries)
{
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_cachewarm");
    const std::string cache_path = dir + "/user.cache";
    // Cold user cache; even-hash points crash their worker once each,
    // so the write-back path must also survive respawn/fast-forward.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"},
                        {"CAPART_CHAOS_CRASH_MOD", "2"}});
    SweepRunnerOptions o = supervisorOptions(dir);
    o.cachePath = cache_path;
    o.workerCmd = {selfExe(), "--cache-path=" + cache_path};
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << i;
        EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
    }

    // Workers stored every computed point back: a fresh ResultCache
    // over the file resolves the whole sweep bit-exactly.
    ResultCache warmed(cache_path);
    EXPECT_EQ(warmed.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        SweepResult r;
        ASSERT_TRUE(warmed.lookup(
            specCacheKey(specs[i], kShardSeed), &r))
            << i;
        EXPECT_TRUE(sameResult(expected[i], r)) << i;
    }
    std::filesystem::remove_all(dir);
}

TEST(ShardSweep, ResumeFastForwardsWithoutRecomputing)
{
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_resume");
    {
        const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"}});
        SweepRunner(supervisorOptions(dir)).run(specs);
    }
    // Second run resumes over the completed segments with chaos armed
    // to crash EVERY recomputed point on every attempt: bit-exact
    // results prove nothing recomputed — the resume fast-forwarded
    // through the segments and results files alone.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"},
                        {"CAPART_CHAOS_CRASH_MOD", "1"},
                        {"CAPART_CHAOS_CRASH_ATTEMPTS", "99"}});
    SweepRunnerOptions o = supervisorOptions(dir);
    o.resumeShards = true;
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << i;
        EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
    }
    std::filesystem::remove_all(dir);
}

// ---------------------------------------------- live status plane --

/** Arm the runtime obs switch for one test body. */
class ObsEnabledGuard
{
  public:
    ObsEnabledGuard() { obs::setEnabled(true); }
    ~ObsEnabledGuard() { obs::setEnabled(false); }
};

#define SKIP_WITHOUT_OBS()                                                 \
    do {                                                                   \
        if (!obs::kCompiledIn)                                             \
            GTEST_SKIP() << "observability compiled out (CAPART_OBS=OFF)"; \
    } while (0)

/** Segment-derived retry count: point_start records beyond each
 *  spec's first, summed across @p segment paths — the ground truth
 *  the status plane must agree with. */
std::uint64_t
segmentRetries(const std::vector<std::string> &segments)
{
    std::uint64_t retries = 0;
    for (const std::string &path : segments) {
        std::map<std::uint64_t, std::uint64_t> starts;
        for (const obs::RunRecord &r : obs::RunLedger::load(path).records)
            if (r.kind == "point_start")
                ++starts[r.specHash];
        for (const auto &[hash, n] : starts)
            retries += n > 0 ? n - 1 : 0;
    }
    return retries;
}

std::vector<std::string>
segmentPaths(const std::string &dir, unsigned shards)
{
    std::vector<std::string> segs;
    for (unsigned k = 0; k < shards; ++k)
        segs.push_back(dir + "/" + kShardBench + "-shard-" +
                       std::to_string(k) + ".seg.jsonl");
    return segs;
}

TEST(ShardStatus, ChaosArmedSweepMatchesLedgerAndStaysBitExact)
{
    SKIP_WITHOUT_OBS();
    const std::vector<ExperimentSpec> specs = testSpecs();
    const std::vector<SweepResult> &expected = expectedResults();

    const std::string dir = freshDir("capart_shard_status");
    // Even-hash points crash their worker once: the plane must report
    // the retries — and the results must stay bit-identical to the
    // plane-off (plain in-process) run, or observability perturbed the
    // simulation.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"},
                        {"CAPART_CHAOS_CRASH_MOD", "2"}});
    const ObsEnabledGuard obs_on;
    obs::tracer().clear();
    SweepRunnerOptions o = supervisorOptions(dir);
    o.shards = 4;
    o.obsDir = dir + "/obs";
    obs::RunLedger canonical(dir + "/canonical.jsonl");
    o.ledger = &canonical;
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);

    ASSERT_EQ(got.size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(got[i].failed) << i;
        EXPECT_TRUE(sameResult(expected[i], got[i])) << i;
    }

    // The final status snapshot agrees with the ledger segments — the
    // same files the merge derives the canonical record set from.
    obs::SweepStatus s;
    ASSERT_TRUE(obs::readStatusFile(o.obsDir + "/status.json", &s));
    EXPECT_EQ(s.state, "complete");
    EXPECT_EQ(s.bench, kShardBench);
    EXPECT_EQ(s.shards, 4u);
    EXPECT_EQ(s.pointsTotal, specs.size());
    EXPECT_EQ(s.pointsDone, specs.size());
    EXPECT_EQ(s.pointsQuarantined, 0u);
    EXPECT_EQ(s.retries, segmentRetries(segmentPaths(dir, 4)));
    EXPECT_GT(s.retries, 0u) << "chaos crashed no point";
    ASSERT_EQ(s.shardStates.size(), 4u);
    std::uint64_t per_shard_done = 0;
    for (const obs::ShardStatus &sh : s.shardStates) {
        per_shard_done += sh.pointsDone;
        EXPECT_TRUE(sh.state == "settled" || sh.state == "idle")
            << sh.shard << " " << sh.state;
        EXPECT_EQ(sh.pointsDone, sh.pointsAssigned) << sh.shard;
    }
    EXPECT_EQ(per_shard_done, specs.size());

    // status.json is the only live fleet file: no Prometheus copy of
    // it, and each worker's counters stay in the metrics.json it wrote
    // to its own obs directory on exit.
    EXPECT_FALSE(std::filesystem::exists(o.obsDir + "/metrics.prom"));
    double worker_points = 0.0;
    for (unsigned k = 0; k < 4; ++k) {
        std::ifstream is(shardObsDir(o.obsDir, k) + "/metrics.json");
        std::ostringstream text;
        text << is.rdbuf();
        const auto doc = Json::parse(text.str());
        if (doc && doc->isObj())
            worker_points +=
                doc->at("counters").at("exec.points_computed").asNum(0.0);
    }
    EXPECT_GT(worker_points, 0.0);

    // The canonical ledger carries one `shard` summary record per
    // shard, agreeing with the status plane.
    const auto loaded = obs::RunLedger::load(dir + "/canonical.jsonl");
    std::uint64_t shard_recs = 0;
    std::uint64_t rec_done = 0;
    std::uint64_t rec_retries = 0;
    for (const obs::RunRecord &r : loaded.records) {
        if (r.kind != "shard")
            continue;
        ++shard_recs;
        rec_done += static_cast<std::uint64_t>(r.metric("points_done"));
        rec_retries += static_cast<std::uint64_t>(r.metric("retries"));
        EXPECT_GT(r.metric("spawns"), 0.0);
    }
    EXPECT_EQ(shard_recs, 4u);
    EXPECT_EQ(rec_done, specs.size());
    EXPECT_EQ(rec_retries, s.retries);

    // Worker traces stitch with the supervisor's lifecycle instants
    // into one well-formed trace.json: unique pids per source process,
    // globally sorted timestamps, spawn instants present. Each worker
    // that ran wrote its own trace on exit.
    unsigned worker_traces = 0;
    for (unsigned k = 0; k < 4; ++k)
        worker_traces += std::filesystem::exists(
            shardObsDir(o.obsDir, k) + "/trace.json");
    EXPECT_GE(worker_traces, 1u);
    writeObsFiles(o.obsDir, 4);

    std::ifstream is(o.obsDir + "/trace.json");
    std::ostringstream text;
    text << is.rdbuf();
    const auto doc = Json::parse(text.str());
    ASSERT_TRUE(doc && doc->isObj());
    const Json &events = doc->at("traceEvents");
    ASSERT_TRUE(events.isArr());
    bool saw_spawn = false;
    double last_ts = -1.0;
    std::map<double, unsigned> events_per_pid;
    for (const Json &e : events.arr) {
        if (e.at("ph").asStr() == "M")
            continue;
        const double ts = e.at("ts").asNum(-1);
        EXPECT_GE(ts, last_ts);
        last_ts = ts;
        ++events_per_pid[e.at("pid").asNum(-1)];
        if (e.at("name").asStr() == "shard.spawn") {
            saw_spawn = true;
            // Supervisor instants live on its host-clock track (pid 2).
            EXPECT_EQ(e.at("pid").asNum(), 2.0);
        }
    }
    EXPECT_TRUE(saw_spawn);
    EXPECT_EQ(doc->at("metadata").at("stitched_sources").asNum(),
              1.0 + worker_traces);
    EXPECT_EQ(doc->at("metadata").at("sources_malformed").asNum(), 0.0);
    std::filesystem::remove_all(dir);
}

TEST(ShardStatus, QuarantinesAndCrashCountsReachTheFinalSnapshot)
{
    SKIP_WITHOUT_OBS();
    const std::vector<ExperimentSpec> specs = testSpecs();

    const std::string dir = freshDir("capart_shard_status_quar");
    // Even-hash points crash on EVERY attempt → quarantine. The final
    // snapshot must account for every point as done or quarantined and
    // agree with the canonical ledger's point_failed records.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"},
                        {"CAPART_CHAOS_CRASH_MOD", "2"},
                        {"CAPART_CHAOS_CRASH_ATTEMPTS", "99"}});
    const ObsEnabledGuard obs_on;
    SweepRunnerOptions o = supervisorOptions(dir);
    o.shards = 4;
    o.obsDir = dir + "/obs";
    obs::RunLedger canonical(dir + "/canonical.jsonl");
    o.ledger = &canonical;
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);
    ASSERT_EQ(got.size(), specs.size());

    std::uint64_t failed_recs = 0;
    for (const obs::RunRecord &r :
         obs::RunLedger::load(dir + "/canonical.jsonl").records)
        if (r.kind == "point_failed")
            ++failed_recs;
    ASSERT_GT(failed_recs, 0u);

    obs::SweepStatus s;
    ASSERT_TRUE(obs::readStatusFile(o.obsDir + "/status.json", &s));
    EXPECT_EQ(s.state, "complete");
    EXPECT_EQ(s.pointsQuarantined, failed_recs);
    EXPECT_EQ(s.pointsDone + s.pointsQuarantined, specs.size());
    std::uint64_t crashes = 0;
    std::uint64_t per_shard_quar = 0;
    for (const obs::ShardStatus &sh : s.shardStates) {
        crashes += sh.crashes;
        per_shard_quar += sh.pointsQuarantined;
    }
    EXPECT_EQ(per_shard_quar, failed_recs);
    EXPECT_GT(crashes, 0u);
    std::filesystem::remove_all(dir);
}

TEST(ShardStatus, PlaneOffWritesNothing)
{
    const std::vector<ExperimentSpec> specs = testSpecs();

    const std::string dir = freshDir("capart_shard_status_off");
    // An obs directory set but the runtime obs switch off (or the
    // whole layer compiled out): the run must not create it, and the
    // workers get no obs directory of their own.
    const EnvGuard env({{"CAPART_SHARD_BACKOFF_MS", "20"}});
    SweepRunnerOptions o = supervisorOptions(dir);
    o.obsDir = dir + "/obs";
    const std::vector<SweepResult> got = SweepRunner(o).run(specs);
    ASSERT_EQ(got.size(), specs.size());
    EXPECT_FALSE(std::filesystem::exists(o.obsDir));
    std::filesystem::remove_all(dir);
}

} // namespace
} // namespace capart::exec

/**
 * Custom main: when the shard supervisor under test re-executes this
 * binary with `--shard-worker=k`, become that worker (compute the
 * fixed test sweep's k-th shard and exit); otherwise run gtest.
 */
int
main(int argc, char **argv)
{
    int worker = -1;
    unsigned shards = 0;
    std::string ledger_dir;
    std::string cache_path;
    std::string obs_dir;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a.rfind("--shard-worker=", 0) == 0)
            worker = std::atoi(a.c_str() + 15);
        else if (a.rfind("--shards=", 0) == 0)
            shards = static_cast<unsigned>(
                std::strtoul(a.c_str() + 9, nullptr, 10));
        else if (a.rfind("--ledger-dir=", 0) == 0)
            ledger_dir = a.substr(13);
        else if (a.rfind("--cache-path=", 0) == 0)
            cache_path = a.substr(13);
        else if (a.rfind("--obs-dir=", 0) == 0)
            obs_dir = a.substr(10);
    }
    if (worker >= 0 && shards > 0) {
        using namespace capart::exec;
        SweepRunnerOptions o;
        o.baseSeed = kShardSeed;
        o.benchName = kShardBench;
        o.runId = "shardtest-worker";
        o.shards = shards;
        o.shardWorker = worker;
        o.ledgerDir = ledger_dir;
        o.cachePath = cache_path;
        // The supervisor passes an obs directory only while its own
        // observability is armed; a worker arms it the way a bench's
        // --obs-dir does.
        o.obsDir = obs_dir;
        capart::obs::setEnabled(!obs_dir.empty());
        SweepRunner(o).run(testSpecs()); // exits; never returns
    }
    ::testing::InitGoogleTest(&argc, argv);
    return RUN_ALL_TESTS();
}
