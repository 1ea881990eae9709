/**
 * @file
 * Tests for the parallel sweep infrastructure (src/exec): the spec-hash
 * seeding scheme, the on-disk memoization cache, bit-identical results
 * for any --jobs value, failure propagation out of the worker threads,
 * resuming an interrupted sweep, and the determinism audit —
 * experiment results must be a function of the spec alone, never of
 * iteration order or of earlier runs in the same process.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include <sys/wait.h>
#include <unistd.h>

#include "common/rng.hh"
#include "core/partitioner.hh"
#include "exec/experiment_spec.hh"
#include "exec/result_cache.hh"
#include "exec/sweep_runner.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/run_ledger.hh"
#include "sim/experiment.hh"
#include "workload/catalog.hh"

namespace capart::exec
{
namespace
{

constexpr double kTestScale = 0.02;

// ------------------------------------------------------------- seeding

TEST(Seeding, MixSeedIsDeterministicAndSensitive)
{
    EXPECT_EQ(mixSeed(12345, 777), mixSeed(12345, 777));
    EXPECT_NE(mixSeed(12345, 777), mixSeed(12345, 778));
    EXPECT_NE(mixSeed(12345, 777), mixSeed(12346, 777));
    EXPECT_NE(mixSeed(0, 0), 0u);
}

TEST(Seeding, SpecHashCoversEveryField)
{
    const ExperimentSpec base = soloSpec("ferret", 4, 12, 0.05);
    EXPECT_EQ(base.hash(), soloSpec("ferret", 4, 12, 0.05).hash());

    ExperimentSpec m = base;
    m.fg = "dedup";
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.threads = 2;
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.ways = 6;
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.prefetchAll = false;
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.scale = 0.06;
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.kind = SpecKind::Pair;
    m.bg = "ferret";
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.perfWindow = 15e-6;
    EXPECT_NE(m.hash(), base.hash());
}

TEST(Seeding, NAppSpecHashCoversItsFields)
{
    const std::vector<std::string> apps{"429.mcf", "470.lbm", "ferret"};
    const ExperimentSpec base = nappSpec(apps, 16, 20, 0x3, 2, 0.04);
    EXPECT_EQ(base.hash(), nappSpec(apps, 16, 20, 0x3, 2, 0.04).hash());

    ExperimentSpec m = base;
    m.napps = "429.mcf,470.lbm";
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.cores = 8;
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.llcWays = 12;
    EXPECT_NE(m.hash(), base.hash());
    m = base;
    m.npolicies = 0x7;
    EXPECT_NE(m.hash(), base.hash());
}

TEST(Seeding, LegacySpecEncodingsUnchangedByNAppFields)
{
    // The NApp fields ride on the same struct but must be encoded only
    // for NApp specs: every pre-existing spec kind keeps its canonical
    // string — and therefore its hash, derived seed, cache keys, and
    // golden values — byte for byte.
    const ExperimentSpec solo = soloSpec("ferret", 4, 12, 0.05);
    EXPECT_EQ(solo.canonical().find("napps="), std::string::npos);
    EXPECT_EQ(solo.canonical().find("npolicies="), std::string::npos);
    ExperimentSpec mutated = solo;
    mutated.cores = 64; // not part of a solo spec's identity
    mutated.npolicies = 0x3f;
    EXPECT_EQ(mutated.canonical(), solo.canonical());

    const ExperimentSpec napp =
        nappSpec({"ferret", "429.mcf"}, 16, 20, 0x3, 2, 0.04);
    EXPECT_NE(napp.canonical().find("napps=ferret,429.mcf"),
              std::string::npos);
}

TEST(Seeding, SplitAppListRoundTrips)
{
    const std::vector<std::string> apps{"a", "bb", "ccc"};
    const ExperimentSpec spec = nappSpec(apps, 4, 8, 0x1, 2, 0.02);
    EXPECT_EQ(splitAppList(spec.napps), apps);
    EXPECT_EQ(splitAppList("solo"), std::vector<std::string>{"solo"});
}

// --------------------------------------------------------------- cache

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
    for (int p = 0; p < 6; ++p) {
        const NAppPolicyOutcome &x = a.napp[p];
        const NAppPolicyOutcome &y = b.napp[p];
        if (x.present != y.present || x.stp != y.stp ||
            x.throughputIps != y.throughputIps ||
            x.unfairness != y.unfairness ||
            x.fgSlowdown != y.fgSlowdown ||
            x.socketEnergyJ != y.socketEnergyJ ||
            x.wallEnergyJ != y.wallEnergyJ ||
            x.sloBreaches != y.sloBreaches || x.remasks != y.remasks)
            return false;
    }
    return true;
}

TEST(ResultCache, EncodeDecodeRoundTripsBitExactly)
{
    SweepResult r;
    r.time = 0.123456789012345678;
    r.socketEnergy = 1e-300;
    r.wallEnergy = 3.14159e10;
    r.mpki = 7.25;
    r.apki = 0.0;
    r.ipc = 1.0 / 3.0;
    r.bgThroughput = 2.5e9;
    r.timedOut = true;
    r.policy[2].present = true;
    r.policy[2].fgSlowdown = 1.0 + 1e-15;
    r.policy[2].weightedSpeedup = 1.9999999999999998;
    r.policy[2].fgWays = 9;
    r.napp[4].present = true;
    r.napp[4].stp = 5.4321098765432101;
    r.napp[4].throughputIps = 1.3e10;
    r.napp[4].unfairness = 1.0 + 1e-14;
    r.napp[4].fgSlowdown = 2.0 - 1e-15;
    r.napp[4].socketEnergyJ = 1e-200;
    r.napp[4].wallEnergyJ = 0.25;
    r.napp[4].sloBreaches = 7;
    r.napp[4].remasks = 123456;

    SweepResult back;
    ASSERT_TRUE(ResultCache::decode(ResultCache::encode(r), &back));
    EXPECT_TRUE(sameResult(r, back));
    EXPECT_TRUE(back.fromCache);
}

TEST(ResultCache, RejectsTruncatedRecords)
{
    SweepResult r;
    const std::string body = ResultCache::encode(r);
    SweepResult out;
    EXPECT_TRUE(ResultCache::decode(body, &out));
    EXPECT_FALSE(
        ResultCache::decode(body.substr(0, body.size() / 2), &out));
    EXPECT_FALSE(ResultCache::decode("", &out));
}

TEST(ResultCache, PersistsAcrossInstances)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "capart_cache_test")
            .string();
    std::remove(path.c_str());

    SweepResult r;
    r.time = 42.5;
    r.policy[0].present = true;
    r.policy[0].fgSlowdown = 1.0625;
    {
        ResultCache cache(path);
        EXPECT_EQ(cache.size(), 0u);
        cache.store(0xdeadbeefULL, r);
    }
    {
        ResultCache cache(path);
        EXPECT_EQ(cache.size(), 1u);
        SweepResult out;
        ASSERT_TRUE(cache.lookup(0xdeadbeefULL, &out));
        EXPECT_TRUE(sameResult(r, out));
        EXPECT_FALSE(cache.lookup(0x1234ULL, &out));
    }
    std::remove(path.c_str());
}

// Write a fresh cache file at path holding one entry: key -> time t.
void
cacheFileWith(const std::string &path, std::uint64_t key, double t)
{
    std::remove(path.c_str());
    SweepResult r;
    r.time = t;
    ResultCache cache(path);
    cache.store(key, r);
}

TEST(ResultCache, ChecksumLineRoundTrips)
{
    const std::string body = "00000000deadbeef " +
                             ResultCache::encode(SweepResult{});
    const std::string line = ResultCache::checksumLine(body);
    std::string back;
    ASSERT_TRUE(ResultCache::verifyLine(line, &back));
    EXPECT_EQ(back, body);
    // Any single-byte change must fail verification.
    std::string flipped = line;
    flipped[4] = flipped[4] == 'x' ? 'y' : 'x';
    EXPECT_FALSE(ResultCache::verifyLine(flipped, &back));
    EXPECT_FALSE(
        ResultCache::verifyLine(line.substr(0, line.size() - 1), &back));
    EXPECT_FALSE(ResultCache::verifyLine(body, &back)); // no checksum
}

TEST(ResultCache, CorruptLinesAreSkippedIntactLinesSurvive)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "capart_cache_corrupt")
            .string();
    cacheFileWith(path, 0x1, 1.5);
    {
        // Second valid entry, then mangle the FIRST entry's payload (a
        // bit flip mid-file, not just a torn tail) and append a torn
        // half-line after it.
        SweepResult r2;
        r2.time = 2.5;
        ResultCache cache(path);
        cache.store(0x2, r2);
    }
    {
        std::ifstream in(path);
        std::string all((std::istreambuf_iterator<char>(in)),
                        std::istreambuf_iterator<char>());
        const std::size_t pos = all.find("0000000000000001 ");
        ASSERT_NE(pos, std::string::npos);
        all[pos + 20] ^= 0x1; // flip one payload bit of entry 0x1
        std::ofstream out(path, std::ios::trunc);
        out << all << "0000000000000003 0x1p+0"; // torn tail, no '\n'
    }
    ResultCache cache(path);
    EXPECT_EQ(cache.size(), 1u);
    SweepResult out;
    EXPECT_FALSE(cache.lookup(0x1, &out)); // corrupt -> recompute
    ASSERT_TRUE(cache.lookup(0x2, &out));  // intact entry still hits
    EXPECT_EQ(out.time, 2.5);
    EXPECT_FALSE(cache.lookup(0x3, &out)); // torn tail never loads
    std::remove(path.c_str());
}

TEST(ResultCache, RejectsNonFiniteEntries)
{
    SweepResult r;
    r.mpki = std::numeric_limits<double>::quiet_NaN();
    SweepResult out;
    EXPECT_FALSE(ResultCache::decode(ResultCache::encode(r), &out));
    r.mpki = 0.0;
    r.policy[1].weightedSpeedup =
        std::numeric_limits<double>::infinity();
    EXPECT_FALSE(ResultCache::decode(ResultCache::encode(r), &out));
}

TEST(ResultCache, IncompatibleHeaderIgnoredWholesaleThenRewritten)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "capart_cache_v1")
            .string();
    {
        // A pre-checksum v1 file: must be ignored (recompute beats
        // trusting unverifiable lines), not partially parsed.
        std::ofstream out(path, std::ios::trunc);
        out << "# capart-sweep-cache v1\n"
            << "0000000000000001 0x1p+0 0x0p+0 0x0p+0 0x0p+0\n";
    }
    {
        ResultCache cache(path);
        EXPECT_EQ(cache.size(), 0u);
        SweepResult r;
        r.time = 9.0;
        cache.store(0x2, r); // first store rewrites as v2
    }
    ResultCache cache(path);
    EXPECT_EQ(cache.size(), 1u);
    SweepResult out;
    ASSERT_TRUE(cache.lookup(0x2, &out));
    EXPECT_EQ(out.time, 9.0);
    EXPECT_FALSE(cache.lookup(0x1, &out));
    std::remove(path.c_str());
}

TEST(ResultCache, TwoProcessesAppendToOneFileIntact)
{
    // Two processes appending to one pre-initialized cache file: every
    // line either lands whole or is rejected by its checksum, and with
    // one write per line none may be rejected.
    const std::string path =
        (std::filesystem::temp_directory_path() / "capart_cache_2proc")
            .string();
    std::remove(path.c_str());
    ResultCache::initializeFile(path);
    constexpr std::uint64_t kPerChild = 300;
    pid_t children[2];
    for (std::uint64_t c = 0; c < 2; ++c) {
        children[c] = fork();
        ASSERT_GE(children[c], 0);
        if (children[c] == 0) {
            ResultCache cache(path);
            for (std::uint64_t i = 0; i < kPerChild; ++i) {
                SweepResult r;
                r.time = static_cast<double>(i) + 0.5;
                r.napp[c].present = true;
                r.napp[c].stp = static_cast<double>(c);
                cache.store((c + 1) << 32 | i, r);
            }
            _exit(0);
        }
    }
    for (const pid_t pid : children) {
        int status = 0;
        ASSERT_EQ(waitpid(pid, &status, 0), pid);
        ASSERT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    const bool was_enabled = obs::enabled();
    obs::setEnabled(true);
    obs::Counter &corrupt = obs::metrics().counter("cache.corrupt");
    const std::uint64_t corrupt_before = corrupt.value();
    const ResultCache cache(path);
    EXPECT_EQ(corrupt.value(), corrupt_before);
    obs::setEnabled(was_enabled);
    EXPECT_EQ(cache.size(), 2 * kPerChild);
    for (std::uint64_t c = 0; c < 2; ++c) {
        for (std::uint64_t i = 0; i < kPerChild; ++i) {
            SweepResult out;
            ASSERT_TRUE(cache.lookup((c + 1) << 32 | i, &out))
                << "child " << c << " entry " << i;
            EXPECT_EQ(out.time, static_cast<double>(i) + 0.5);
            EXPECT_TRUE(out.napp[c].present);
            EXPECT_EQ(out.napp[c].stp, static_cast<double>(c));
        }
    }
    std::remove(path.c_str());
}

// -------------------------------------------------- runner determinism

std::vector<ExperimentSpec>
representativePairSweep()
{
    // A small but representative sweep: solos, shared pairs, and a
    // partitioned pair over three of the Table 3 representatives.
    const std::vector<std::string> apps = {"429.mcf", "ferret", "dedup"};
    std::vector<ExperimentSpec> specs;
    for (const auto &a : apps)
        specs.push_back(soloSpec(a, 4, 12, kTestScale));
    for (const auto &fg : apps)
        for (const auto &bg : apps)
            specs.push_back(pairSpec(fg, bg, kTestScale));
    specs.push_back(pairSpec("429.mcf", "ferret", kTestScale,
                             /*fg_mask_ways=*/8));
    return specs;
}

TEST(SweepRunner, ResultsBitIdenticalForAnyJobCount)
{
    const std::vector<ExperimentSpec> specs = representativePairSweep();

    std::vector<std::vector<SweepResult>> outcomes;
    for (const unsigned jobs : {1u, 2u, 8u}) {
        SweepRunnerOptions o;
        o.jobs = jobs;
        o.baseSeed = 12345;
        outcomes.push_back(SweepRunner(o).run(specs));
    }
    ASSERT_EQ(outcomes[0].size(), specs.size());
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_TRUE(sameResult(outcomes[0][i], outcomes[1][i]))
            << "--jobs=2 diverged at spec " << i;
        EXPECT_TRUE(sameResult(outcomes[0][i], outcomes[2][i]))
            << "--jobs=8 diverged at spec " << i;
    }
}

TEST(SweepRunner, BaseSeedChangesResults)
{
    const ExperimentSpec spec = soloSpec("canneal", 4, 12, kTestScale);
    const SweepResult a = runSpec(spec, 12345);
    const SweepResult b = runSpec(spec, 54321);
    EXPECT_NE(a.time, b.time);
}

TEST(SweepRunner, ProgressReachesTotal)
{
    const std::vector<ExperimentSpec> specs = {
        soloSpec("ferret", 4, 12, kTestScale),
        soloSpec("dedup", 4, 12, kTestScale),
    };
    std::size_t last_done = 0, last_total = 0;
    SweepRunnerOptions o;
    o.jobs = 2;
    o.progress = [&](std::size_t done, std::size_t total) {
        last_done = done;
        last_total = total;
    };
    SweepRunner(o).run(specs);
    EXPECT_EQ(last_done, 2u);
    EXPECT_EQ(last_total, 2u);
}

TEST(SweepRunner, ThrowingProgressIsRethrownByRun)
{
    // A failure on a worker thread must surface from run() at any job
    // count, and stop further points from starting.
    const std::vector<ExperimentSpec> specs = {
        soloSpec("ferret", 4, 12, kTestScale),
        soloSpec("dedup", 4, 12, kTestScale),
        soloSpec("canneal", 4, 12, kTestScale),
        soloSpec("429.mcf", 4, 12, kTestScale),
        soloSpec("x264", 4, 12, kTestScale),
    };
    for (const unsigned jobs : {1u, 4u}) {
        std::atomic<int> calls{0};
        SweepRunnerOptions o;
        o.jobs = jobs;
        o.progress = [&](std::size_t, std::size_t) {
            ++calls;
            throw std::runtime_error("progress failed");
        };
        EXPECT_THROW(SweepRunner(o).run(specs), std::runtime_error)
            << "--jobs=" << jobs;
        EXPECT_GE(calls.load(), 1) << "--jobs=" << jobs;
        EXPECT_LE(calls.load(), static_cast<int>(jobs))
            << "--jobs=" << jobs << ": points kept starting after a failure";
    }
}

TEST(SweepRunner, RepeatedSpecRunsOnceAndEveryListingReadsIt)
{
    // A figure whose measurements share points lists a spec more than
    // once: it runs, caches and ledgers once, every listing reads its
    // result, and progress still counts every listing.
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "capart_repeated_spec";
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    const ExperimentSpec shared = soloSpec("ferret", 4, 12, kTestScale);
    const std::vector<ExperimentSpec> specs = {
        soloSpec("ferret", 1, 12, kTestScale), shared, shared,
        soloSpec("ferret", 4, 12, kTestScale, /*prefetch_all=*/false)};

    std::vector<std::size_t> done_marks;
    std::vector<SweepResult> res;
    {
        obs::RunLedger ledger((dir / "ledger.jsonl").string());
        SweepRunnerOptions o;
        o.jobs = 2;
        o.cachePath = (dir / "sweep.cache").string();
        o.ledger = &ledger;
        o.progress = [&](std::size_t done, std::size_t total) {
            EXPECT_EQ(total, specs.size());
            done_marks.push_back(done);
        };
        res = SweepRunner(o).run(specs);
    }
    ASSERT_EQ(res.size(), specs.size());
    EXPECT_EQ(res[1].time, runSpec(shared, 12345).time);
    EXPECT_EQ(res[2].time, res[1].time);
    EXPECT_NE(res[3].time, res[2].time);
    EXPECT_EQ(done_marks, (std::vector<std::size_t>{1, 2, 3, 4}));
    // One stored point and one ledger record per distinct spec.
    EXPECT_EQ(ResultCache((dir / "sweep.cache").string()).size(), 3u);
    EXPECT_EQ(
        obs::RunLedger::load((dir / "ledger.jsonl").string()).records.size(),
        3u);
    std::filesystem::remove_all(dir);
}

TEST(SweepRunner, CacheSkipsCompletedPointsBitExactly)
{
    const std::string path =
        (std::filesystem::temp_directory_path() / "capart_sweep_cache")
            .string();
    std::remove(path.c_str());

    const std::vector<ExperimentSpec> specs = representativePairSweep();
    SweepRunnerOptions o;
    o.jobs = 2;
    o.cachePath = path;
    const std::vector<SweepResult> fresh = SweepRunner(o).run(specs);
    const std::vector<SweepResult> cached = SweepRunner(o).run(specs);

    ASSERT_EQ(fresh.size(), cached.size());
    for (std::size_t i = 0; i < fresh.size(); ++i) {
        EXPECT_FALSE(fresh[i].fromCache) << i;
        EXPECT_TRUE(cached[i].fromCache) << i;
        EXPECT_TRUE(sameResult(fresh[i], cached[i])) << i;
    }

    // A different base seed must not hit the same cache entries.
    SweepRunnerOptions other = o;
    other.baseSeed = 99999;
    const std::vector<SweepResult> reseeded =
        SweepRunner(other).run(specs);
    EXPECT_FALSE(reseeded[0].fromCache);
    std::remove(path.c_str());
}

TEST(SweepRunner, InterruptedSweepResumesBitExactly)
{
    // A sweep stopped after k points (a throwing progress callback
    // stands in for the kill), with a torn half line left at the end
    // of its cache, resumes by computing only the points it had not
    // stored, and its results equal a clean run's.
    const std::string path =
        (std::filesystem::temp_directory_path() / "capart_resume_cache")
            .string();
    const std::vector<ExperimentSpec> specs = representativePairSweep();
    const std::vector<SweepResult> clean =
        SweepRunner(SweepRunnerOptions{}).run(specs);
    constexpr std::size_t k = 5;
    for (const unsigned jobs : {1u, 4u}) {
        std::remove(path.c_str());
        SweepRunnerOptions o;
        o.jobs = jobs;
        o.cachePath = path;
        SweepRunnerOptions stopped = o;
        stopped.progress = [](std::size_t done, std::size_t) {
            if (done >= k)
                throw std::runtime_error("interrupted");
        };
        EXPECT_THROW(SweepRunner(stopped).run(specs), std::runtime_error);
        {
            std::ifstream in(path);
            std::string header, line;
            ASSERT_TRUE(std::getline(in, header) && std::getline(in, line));
            std::ofstream(path, std::ios::app)
                << line.substr(0, line.size() / 2);
        }
        const std::size_t stored = ResultCache(path).size();
        EXPECT_GE(stored, k) << "--jobs=" << jobs;
        EXPECT_LT(stored, k + jobs) << "--jobs=" << jobs;

        const std::vector<SweepResult> resumed = SweepRunner(o).run(specs);
        ASSERT_EQ(resumed.size(), specs.size());
        std::size_t replayed = 0;
        for (std::size_t i = 0; i < specs.size(); ++i) {
            replayed += resumed[i].fromCache;
            EXPECT_TRUE(sameResult(resumed[i], clean[i]))
                << "--jobs=" << jobs << " spec " << i;
        }
        EXPECT_EQ(replayed, stored) << "--jobs=" << jobs;
        // The torn tail cost nothing more: every point now replays.
        EXPECT_EQ(ResultCache(path).size(), specs.size())
            << "--jobs=" << jobs;
    }
    std::remove(path.c_str());
}

TEST(SweepRunner, LedgerRecordsOnlyMeasuredMetrics)
{
    // runSpec sets the flat SweepResult fields per kind — solo and pair
    // all of them, consolidation none, N-app only timedOut — so a point
    // record must carry no other flat metric: an untouched default is
    // not a measurement.
    const std::string path = (std::filesystem::temp_directory_path() /
                              "capart_kinds_ledger.jsonl")
                                 .string();
    std::remove(path.c_str());
    const ExperimentSpec solo = soloSpec("ferret", 4, 12, kTestScale);
    const ExperimentSpec pair = pairSpec("429.mcf", "ferret", kTestScale);
    const ExperimentSpec consolidation =
        consolidationSpec("429.mcf", "ferret", policyBit(Policy::Shared),
                          kTestScale, 15e-6);
    const ExperimentSpec napp =
        nappSpec({"429.mcf", "ferret"}, 4, 8, npolicyBit(NPolicy::Fair),
                 2, kTestScale);
    {
        obs::RunLedger ledger(path);
        SweepRunnerOptions o;
        o.ledger = &ledger;
        SweepRunner(o).run({solo, pair, consolidation, napp});
    }
    const std::vector<obs::RunRecord> recs =
        obs::RunLedger::load(path).records;
    std::remove(path.c_str());

    using Names = std::vector<std::string>;
    const Names flat = {"time_s", "socket_energy_j", "wall_energy_j",
                        "mpki",   "apki",            "ipc"};
    Names solo_names = flat;
    solo_names.push_back("timed_out");
    Names pair_names = flat;
    pair_names.push_back("bg_throughput_ips");
    pair_names.push_back("timed_out");
    const Names consolidation_names = {
        "shared.fg_slowdown",       "shared.bg_throughput_ips",
        "shared.energy_vs_seq",     "shared.wall_energy_vs_seq",
        "shared.weighted_speedup", "shared.fg_ways"};
    const Names napp_names = {
        "timed_out",           "fair.stp",
        "fair.throughput_ips", "fair.unfairness",
        "fair.fg_slowdown",    "fair.socket_energy_j",
        "fair.wall_energy_j",  "fair.slo_breaches",
        "fair.remasks"};
    const std::vector<std::pair<const ExperimentSpec *, Names>> expected =
        {{&solo, solo_names},
         {&pair, pair_names},
         {&consolidation, consolidation_names},
         {&napp, napp_names}};

    ASSERT_EQ(recs.size(), expected.size());
    for (const auto &[spec, names] : expected) {
        const auto rec = std::find_if(
            recs.begin(), recs.end(), [&](const obs::RunRecord &r) {
                return r.specHash == spec->hash();
            });
        ASSERT_NE(rec, recs.end()) << spec->canonical();
        Names got;
        for (const auto &[name, value] : rec->metrics)
            got.push_back(name);
        EXPECT_EQ(got, names) << spec->canonical();
    }
}

// ---------------------------------------------------- determinism audit
//
// The regression suite is only trustworthy if runSolo/runPair results
// depend on nothing but their arguments: not on catalog iteration
// order, not on what ran earlier in the process. These tests pin that.

SoloResult
soloOf(const std::string &name)
{
    SoloOptions o;
    o.threads = 4;
    o.scale = kTestScale;
    return runSolo(Catalog::byName(name), o);
}

PairResult
pairOf(const std::string &fg, const std::string &bg)
{
    PairOptions o;
    o.scale = kTestScale;
    return runPair(Catalog::byName(fg), Catalog::byName(bg), o);
}

TEST(DeterminismAudit, SoloInvariantToCatalogIterationOrder)
{
    // Forward pass over a slice of the catalog...
    const std::vector<std::string> names = {"429.mcf", "ferret",
                                            "dedup", "canneal"};
    std::vector<SoloResult> forward;
    for (const auto &n : names)
        forward.push_back(soloOf(n));
    // ...then the same apps visited in reverse.
    std::vector<SoloResult> reverse;
    for (auto it = names.rbegin(); it != names.rend(); ++it)
        reverse.push_back(soloOf(*it));

    for (std::size_t i = 0; i < names.size(); ++i) {
        const SoloResult &f = forward[i];
        const SoloResult &r = reverse[names.size() - 1 - i];
        EXPECT_EQ(f.time, r.time) << names[i];
        EXPECT_EQ(f.app.llcMisses, r.app.llcMisses) << names[i];
        EXPECT_EQ(f.socketEnergy, r.socketEnergy) << names[i];
        EXPECT_EQ(f.wallEnergy, r.wallEnergy) << names[i];
    }
}

TEST(DeterminismAudit, PairInvariantToPriorRunsInProcess)
{
    const PairResult before = pairOf("429.mcf", "ferret");

    // Pollute the process with unrelated work: different apps, masks,
    // policies, scales.
    soloOf("canneal");
    pairOf("dedup", "429.mcf");
    {
        PairOptions o;
        o.scale = kTestScale;
        const SplitMasks m = splitWays(3, 12);
        o.fgMask = m.fg;
        o.bgMask = m.bg;
        runPair(Catalog::byName("ferret"), Catalog::byName("dedup"), o);
    }

    const PairResult after = pairOf("429.mcf", "ferret");
    EXPECT_EQ(before.fgTime, after.fgTime);
    EXPECT_EQ(before.bgThroughput, after.bgThroughput);
    EXPECT_EQ(before.socketEnergy, after.socketEnergy);
    EXPECT_EQ(before.fg.llcMisses, after.fg.llcMisses);
    EXPECT_EQ(before.bg.iterations, after.bg.iterations);
}

TEST(DeterminismAudit, RunSpecInvariantToPriorSpecs)
{
    const ExperimentSpec probe =
        pairSpec("429.mcf", "ferret", kTestScale);
    const SweepResult fresh = runSpec(probe, 12345);

    // Interleave every spec kind, including a consolidation study that
    // exercises the dynamic controller's internal state.
    runSpec(soloSpec("canneal", 4, 6, kTestScale), 12345);
    runSpec(consolidationSpec("ferret", "dedup",
                              policyBit(Policy::Shared) |
                                  policyBit(Policy::Dynamic),
                              kTestScale, 15e-6),
            12345);

    const SweepResult again = runSpec(probe, 12345);
    EXPECT_TRUE(sameResult(fresh, again));
}

TEST(DeterminismAudit, NAppSpecRunsDeterministicallyAndRoundTrips)
{
    // A small 3-app point under two policies: determinism across
    // repeats and interleaved foreign specs, plus a bit-exact pass
    // through the on-disk cache encoding.
    const ExperimentSpec probe =
        nappSpec({"429.mcf", "470.lbm", "ferret"}, 4, 8,
                 npolicyBit(NPolicy::Fair) | npolicyBit(NPolicy::Lfoc),
                 2, 0.02);
    const SweepResult fresh = runSpec(probe, 12345);
    for (int p = 0; p < 6; ++p) {
        const bool expect_present =
            static_cast<NPolicy>(p) == NPolicy::Fair ||
            static_cast<NPolicy>(p) == NPolicy::Lfoc;
        EXPECT_EQ(fresh.napp[p].present, expect_present) << p;
    }
    EXPECT_GT(fresh.napp[static_cast<int>(NPolicy::Fair)].stp, 0.0);
    EXPECT_GE(fresh.napp[static_cast<int>(NPolicy::Lfoc)].unfairness,
              1.0);

    runSpec(soloSpec("canneal", 4, 6, kTestScale), 12345);
    const SweepResult again = runSpec(probe, 12345);
    EXPECT_TRUE(sameResult(fresh, again));

    SweepResult decoded;
    ASSERT_TRUE(
        ResultCache::decode(ResultCache::encode(fresh), &decoded));
    EXPECT_TRUE(sameResult(fresh, decoded));
}

} // namespace
} // namespace capart::exec
