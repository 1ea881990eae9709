/**
 * @file
 * Tests for the sweep plumbing the figure binaries share (bench/
 * bench_common): runDistinct runs a spec listed twice once and hands
 * both listings its result, and every bench keeps its results in one
 * cache file per cache directory, so a bench replays the points
 * another bench computed.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "exec/experiment_spec.hh"

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

TEST(RunDistinct, RepeatedSpecRunsOnceAndEveryListingReadsIt)
{
    const BenchOptions opts = cachedOptions("capart_run_distinct");
    const exec::ExperimentSpec shared =
        exec::soloSpec("ferret", 4, 12, kTestScale);
    const std::vector<exec::ExperimentSpec> specs = {
        exec::soloSpec("ferret", 1, 12, kTestScale), shared, shared,
        exec::soloSpec("ferret", 4, 12, kTestScale,
                       /*prefetch_all=*/false)};

    const std::vector<exec::SweepResult> res = runDistinct(opts, specs);
    ASSERT_EQ(res.size(), specs.size());
    EXPECT_EQ(res[1].time, exec::runSpec(shared, opts.seed).time);
    EXPECT_EQ(res[2].time, res[1].time);
    EXPECT_NE(res[3].time, res[2].time);
    // One stored point per distinct spec, after the header.
    EXPECT_EQ(lineCount(opts.cacheDir + "/sweep.cache"), 1u + 3u);
    std::filesystem::remove_all(opts.cacheDir);
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

} // namespace
} // namespace capart::bench
