/**
 * @file
 * Ablation: offline miss-rate curves vs. measured way sweeps.
 *
 * §7's related work (RapidMRC, FlexDCP, UCP) drives partitioning from
 * miss-rate curves. This ablation builds the exact LRU MRC of each
 * representative's reference stream with the stack-distance profiler
 * and compares the capacity at which the MRC flattens against the
 * allocation at which the simulator's measured execution time
 * flattens. Agreement validates that the measured LLC sensitivity
 * really is a working-set effect; the residual gap quantifies what the
 * private levels, set conflicts, and pseudo-LRU add on top.
 */

#include <iostream>
#include <vector>

#include "analysis/mrc.hh"
#include "bench_common.hh"
#include "workload/catalog.hh"
#include "workload/generator.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.3,
        "Ablation: stack-distance MRC vs measured way sensitivity");

    std::vector<exec::ExperimentSpec> specs;
    for (const auto &rep : representatives())
        addWaySweep(specs, rep.name, opts.scale, /*threads=*/1);
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    const std::uint64_t sets = HierarchyConfig::sandyBridge().llc.sets();
    Table t({"app", "alloc", "MB", "mrc-miss-ratio", "measured-ms"});
    std::size_t k = 0;
    for (const auto &rep : representatives()) {
        // Profile the (single-thread) reference stream.
        const AppParams app = rep.scaled(opts.scale);
        ThreadWorkload wl(app, 0, 1, 1ull << 40, opts.seed);
        StackDistanceProfiler prof;
        std::vector<MemAccess> buf;
        while (!wl.done()) {
            buf.clear();
            const double progress =
                static_cast<double>(wl.retired()) /
                static_cast<double>(wl.totalWork());
            wl.runQuantum(100000, progress, buf);
            for (const MemAccess &m : buf) {
                if (!m.uncached)
                    prof.access(lineAddr(m.addr));
            }
        }

        const std::vector<double> measured = takeTimes(res, k, 12);
        for (unsigned ways = 1; ways <= 12; ++ways) {
            const std::uint64_t cap_lines = ways * sets;
            t.addRow({rep.name, std::to_string(ways) + "w",
                      Table::num(ways * 0.5, 1),
                      Table::num(prof.missRatio(cap_lines), 4),
                      Table::num(measured[ways - 1] * 1e3, 3)});
        }
        std::cerr << rep.name << ": " << prof.accesses()
                  << " refs profiled, " << prof.uniqueLines()
                  << " unique lines\n";
    }
    emit(opts, "Ablation: exact-LRU MRC vs measured time by allocation",
         t);
    std::cout << "\nExpectation: the allocation where the MRC flattens "
                 "matches the measured curve's\nknee; the measured curve "
                 "is smoother (set conflicts, pseudo-LRU, private-level "
                 "filtering).\n";
    return 0;
}
