/**
 * @file
 * Figure 12: 429.mcf's LLC MPKI over retired instructions for static
 * allocations of 2..12 ways and for the dynamic partitioning
 * algorithm, exposing the phase transitions the dynamic policy
 * exploits (§6.1).
 */

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hh"
#include "core/dynamic_partitioner.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

namespace
{

/** MPKI per perf window of a solo mcf run at a static allocation. */
std::vector<PerfWindow>
mcfWindows(unsigned ways, const BenchOptions &opts)
{
    SystemConfig cfg;
    cfg.seed = opts.seed;
    cfg.perfWindow = 20e-6;
    journalRunStart("solo", 1, cfg.hierarchy.llc.ways, {{"ways", ways}});
    System sys(cfg);
    const AppParams mcf =
        Catalog::byName("429.mcf").scaled(opts.scale);
    const AppId id = sys.addAppThreads(mcf, 0, 1);
    if (ways < sys.llcWays())
        sys.setWayMask(id, WayMask::range(0, ways));
    sys.run();
    return sys.monitor(id).windows();
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 1.0,
        "Fig. 12: 429.mcf MPKI phases under static and dynamic "
        "allocations");

    // Static curves: sample MPKI at 20 evenly spaced progress points.
    constexpr unsigned kSamples = 20;
    std::map<unsigned, std::vector<double>> curves;
    for (unsigned ways = 2; ways <= 12; ways += 1) {
        const std::vector<PerfWindow> windows = mcfWindows(ways, opts);
        std::vector<double> samples;
        for (unsigned s = 0; s < kSamples; ++s) {
            const std::size_t idx =
                s * windows.size() / kSamples;
            samples.push_back(windows[idx].mpki);
        }
        curves[ways] = std::move(samples);
        std::cerr << ways << " ways done\n";
    }

    // Dynamic run: mcf foreground, dedup background (any background
    // peer exercises the reallocations).
    SystemConfig cfg;
    cfg.seed = opts.seed;
    cfg.perfWindow = 20e-6;
    journalRunStart("dynamic", 2, cfg.hierarchy.llc.ways);
    System sys(cfg);
    const AppId fg = sys.addAppThreads(
        Catalog::byName("429.mcf").scaled(opts.scale), 0, 1);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(opts.scale), 2, 2, true);
    DynamicPartitioner ctrl(fg, {bg});
    sys.setController(&ctrl);
    sys.run();
    const std::vector<AllocationEvent> &hist = ctrl.history();

    Table t([&] {
        std::vector<std::string> hdr = {"progress"};
        for (unsigned ways = 2; ways <= 12; ++ways)
            hdr.push_back(std::to_string(ways) + "w");
        hdr.push_back("dynamic_mpki");
        hdr.push_back("dynamic_ways");
        return hdr;
    }());
    for (unsigned s = 0; s < kSamples; ++s) {
        std::vector<std::string> row = {
            Table::num(static_cast<double>(s) / kSamples, 2)};
        for (unsigned ways = 2; ways <= 12; ++ways)
            row.push_back(Table::num(curves[ways][s], 1));
        const std::size_t hidx = s * hist.size() / kSamples;
        row.push_back(Table::num(hist[hidx].windowMpki, 1));
        row.push_back(std::to_string(hist[hidx].fgWays));
        t.addRow(std::move(row));
    }
    emit(opts, "Figure 12: 429.mcf MPKI vs progress for static "
               "allocations and the dynamic policy",
         t);

    std::cout << "\nDetected phase changes (dynamic run): "
              << ctrl.detector().phaseChanges()
              << " (paper: mcf transitions 5 times)\n"
              << "Reallocations performed: " << ctrl.reallocations()
              << "\n";
    return 0;
}
