/**
 * @file
 * Figure 10: socket energy of running both applications of each
 * unordered representative pair concurrently (shared / fair / biased),
 * normalized to running them sequentially on the whole machine (§5.3).
 * Pairs fan out through SweepRunner (`--jobs=N`, `--resume`).
 */

#include <algorithm>
#include <iostream>

#include "bench_common.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.06,
        "Fig. 10: consolidated socket energy vs sequential execution");

    const auto stats = emitUnorderedPairs(
        opts, "Figure 10: relative socket energy (consolidated / sequential)",
        &exec::PolicyOutcome::energyVsSequential);
    const RunningStat &sh = stats.at(Policy::Shared);
    const RunningStat &bi = stats.at(Policy::Biased);
    std::cout << "\nAverage energy improvement: shared "
              << Table::num((1 - sh.mean()) * 100, 1)
              << "% (paper 10%), biased "
              << Table::num((1 - bi.mean()) * 100, 1)
              << "% (paper 12%), best pair "
              << Table::num((1 - std::min(1.0, bi.min())) * 100, 1)
              << "% (paper max 37%, theoretical bound 50%)\n";
    return 0;
}
