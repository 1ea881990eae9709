/**
 * @file
 * Tests for the plumbing the figure binaries share (bench/
 * bench_common): every bench keeps its results in one cache file per
 * cache directory, so a bench replays the points another bench
 * computed; and only --obs-dir arms observability.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "exec/experiment_spec.hh"
#include "obs/obs.hh"
#include "obs/run_ledger.hh"

namespace capart::bench
{
namespace
{

constexpr double kTestScale = 0.02;

/** Options whose sweeps cache under a fresh directory @p name. */
BenchOptions
cachedOptions(const std::string &name)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / name;
    std::filesystem::remove_all(dir);
    BenchOptions opts;
    opts.scale = kTestScale;
    opts.jobs = 2;
    opts.resume = true;
    opts.cacheDir = dir.string();
    return opts;
}

/** Lines of @p path, its header included. */
std::size_t
lineCount(const std::string &path)
{
    std::ifstream in(path);
    std::size_t n = 0;
    for (std::string line; std::getline(in, line);)
        ++n;
    return n;
}

TEST(MakeRunner, EveryBenchSharesOneCacheFilePerDirectory)
{
    const BenchOptions opts = cachedOptions("capart_bench_cache");
    const std::filesystem::path dir = opts.cacheDir;
    const std::vector<exec::ExperimentSpec> specs = {
        exec::soloSpec("dedup", 2, 6, kTestScale),
        exec::pairSpec("dedup", "ferret", kTestScale)};

    // The file and its header exist before any point is stored, so
    // benches started at once over one directory only append to it.
    const exec::SweepRunner first = makeRunner(opts);
    EXPECT_EQ(first.options().cachePath, (dir / "sweep.cache").string());
    EXPECT_EQ(lineCount(first.options().cachePath), 1u);

    const std::vector<exec::SweepResult> cold =
        makeRunner(opts).run(specs);
    const std::vector<exec::SweepResult> warm =
        makeRunner(opts).run(specs);
    for (std::size_t i = 0; i < specs.size(); ++i) {
        EXPECT_FALSE(cold[i].fromCache);
        EXPECT_TRUE(warm[i].fromCache);
        EXPECT_EQ(warm[i].time, cold[i].time);
    }

    std::vector<std::string> files;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        files.push_back(entry.path().filename().string());
    EXPECT_EQ(files, std::vector<std::string>{"sweep.cache"});
    std::filesystem::remove_all(dir);
}

/**
 * parseArgs over @p flags, then exit 0 when observability ended up
 * armed and 3 when not. parseArgs starts a signal-watcher thread and
 * registers exit hooks, so each call runs in a death-test child.
 */
[[noreturn]] void
parseThenExitWithArmedState(std::vector<std::string> flags)
{
    flags.insert(flags.begin(), "bench_test");
    std::vector<char *> argv;
    for (std::string &f : flags)
        argv.push_back(f.data());
    argv.push_back(nullptr);
    parseArgs(static_cast<int>(flags.size()), argv.data(), kTestScale,
              "test");
    std::exit(obs::enabled() ? 0 : 3);
}

TEST(ParseArgs, LedgerAloneArmsNothing)
{
    const std::string ledger =
        (std::filesystem::temp_directory_path() / "capart_ledger_only.jsonl")
            .string();
    std::filesystem::remove(ledger);
    EXPECT_EXIT(parseThenExitWithArmedState({"--ledger=" + ledger}),
                testing::ExitedWithCode(3), "");

    // The exit hook still closed the run with its bench record.
    const obs::RunLedger::LoadResult loaded = obs::RunLedger::load(ledger);
    ASSERT_EQ(loaded.records.size(), 1u);
    EXPECT_EQ(loaded.records[0].kind, "bench");
    std::filesystem::remove(ledger);
}

TEST(ParseArgs, ObsDirArmsRecording)
{
    const std::filesystem::path dir =
        std::filesystem::temp_directory_path() / "capart_obs_dir_arms";
    std::filesystem::remove_all(dir);
    EXPECT_EXIT(parseThenExitWithArmedState({"--obs-dir=" + dir.string(),
                                             "--obs-sample-period=8"}),
                testing::ExitedWithCode(0), "");
    EXPECT_TRUE(std::filesystem::exists(dir / "metrics.json"));
    std::filesystem::remove_all(dir);
}

TEST(ParseArgs, SamplePeriodWithoutObsDirIsAUsageError)
{
    EXPECT_EXIT(parseThenExitWithArmedState({"--obs-sample-period=8"}),
                testing::ExitedWithCode(1), "");
}

} // namespace
} // namespace capart::bench
