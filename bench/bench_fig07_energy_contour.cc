/**
 * @file
 * Figure 7: wall-energy contours over the (threads x ways) allocation
 * plane for each cluster representative, normalized to the
 * minimum-energy allocation — darker paper contours == higher ratios
 * here. Also reports each representative's energy-optimal allocation
 * and how much LLC it can yield without leaving the 2.5 % contour
 * (the "resource gap" §4 exploits for consolidation).
 *
 * All six planes are swept as one SweepRunner batch (`--jobs=N`,
 * `--resume`).
 */

#include <iostream>
#include <limits>
#include <vector>

#include "bench_common.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.08, "Fig. 7: wall-energy contours per "
                          "representative");

    const unsigned thread_step = opts.quick ? 2 : 1;
    const unsigned way_step = opts.quick ? 3 : 1;
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

    for (std::size_t r = 0; r < reps.size(); ++r) {
        // Assemble this representative's plane.
        std::vector<std::vector<double>> wall(
            9, std::vector<double>(13,
                                   std::numeric_limits<double>::max()));
        double best = std::numeric_limits<double>::max();
        unsigned best_threads = 1, best_ways = 1;
        for (std::size_t i = r * per_rep; i < (r + 1) * per_rep; ++i) {
            const exec::ExperimentSpec &p = specs[i];
            wall[p.threads][p.ways] = res[i].wallEnergy;
            if (res[i].wallEnergy < best) {
                best = res[i].wallEnergy;
                best_threads = p.threads;
                best_ways = p.ways;
            }
        }

        Table t({"threads\\ways", "1", "2", "3", "4", "5", "6", "7", "8",
                 "9", "10", "11", "12"});
        for (unsigned threads = 1; threads <= 8;
             threads += thread_step) {
            std::vector<std::string> row = {std::to_string(threads)};
            for (unsigned ways = 1; ways <= 12; ++ways) {
                row.push_back(
                    wall[threads][ways] ==
                            std::numeric_limits<double>::max()
                        ? "-"
                        : Table::num(wall[threads][ways] / best, 3));
            }
            t.addRow(std::move(row));
        }
        emit(opts,
             "Figure 7 [" + repLabel(r) + " " + reps[r].name +
                 "]: wall energy / minimum",
             t);

        // The yieldable-LLC metric: smallest way count at the optimal
        // thread count whose energy is within 2.5 % of the minimum.
        unsigned min_ways = best_ways;
        for (unsigned ways = 1; ways <= best_ways; ++ways) {
            if (wall[best_threads][ways] <= best * 1.025) {
                min_ways = ways;
                break;
            }
        }
        std::cout << reps[r].name << ": energy-optimal at "
                  << best_threads << " threads / " << best_ways
                  << " ways; can yield "
                  << Table::num((12 - min_ways) * 0.5, 1)
                  << " MB of LLC within the 1.025 contour\n";
    }
    return 0;
}
