/**
 * @file
 * Figure 11: weighted speedup of each unordered representative pair
 * running concurrently under shared / fair / biased partitioning,
 * relative to running each application sequentially on the whole
 * machine (§5.3). Pairs fan out through SweepRunner (`--jobs=N`,
 * `--resume`).
 */

#include <iostream>

#include "bench_common.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.06,
        "Fig. 11: weighted speedup of consolidation vs sequential");

    const auto stats =
        emitUnorderedPairs(opts, "Figure 11: weighted speedup by policy",
                           &exec::PolicyOutcome::weightedSpeedup);
    std::cout << "\nAverage consolidation speedup: shared "
              << Table::num((stats.at(Policy::Shared).mean() - 1) * 100, 1)
              << "% (paper 54%), biased "
              << Table::num((stats.at(Policy::Biased).mean() - 1) * 100, 1)
              << "% (paper 60%)\n";
    return 0;
}
