/**
 * @file
 * Figure 6: execution time, LLC MPKI, socket energy, and wall energy
 * of every (threads x ways) resource allocation for the six cluster
 * representatives — the 96-allocation sweep of §4, fanned out through
 * SweepRunner (`--jobs=N`, `--resume`).
 */

#include <iostream>

#include "bench_common.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.08,
        "Fig. 6: time/MPKI/energy over all 96 allocations per "
        "representative");

    const unsigned thread_step = opts.quick ? 2 : 1;
    const unsigned way_step = opts.quick ? 2 : 1;
    const auto reps = representatives();

    // Each spec names its own point (app, threads, ways).
    std::vector<exec::ExperimentSpec> specs;
    for (const AppParams &rep : reps)
        for (unsigned threads = 1; threads <= 8; threads += thread_step)
            for (unsigned ways = 1; ways <= 12; ways += way_step)
                specs.push_back(
                    exec::soloSpec(rep.name, threads, ways, opts.scale));
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);
    const std::size_t per_rep = specs.size() / reps.size();

    Table t({"rep", "app", "threads", "ways", "time_ms", "mpki",
             "socket_J", "wall_J"});
    for (std::size_t i = 0; i < specs.size(); ++i) {
        const exec::ExperimentSpec &p = specs[i];
        t.addRow({repLabel(i / per_rep), p.fg, std::to_string(p.threads),
                  std::to_string(p.ways), Table::num(res[i].time * 1e3, 3),
                  Table::num(res[i].mpki, 2),
                  Table::num(res[i].socketEnergy, 4),
                  Table::num(res[i].wallEnergy, 4)});
    }
    emit(opts, "Figure 6: allocation-space sweep for the cluster "
               "representatives",
         t);

    std::cout << "\nRace-to-halt check: for each representative, the "
                 "minimum-energy allocation\nshould also be at (or very "
                 "near) the minimum-time allocation (§4).\n";
    return 0;
}
