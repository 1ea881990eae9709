/**
 * @file
 * Figure 4: increase in execution time when co-running with the
 * stream_uncached bandwidth hog, for every application.
 */

#include <iostream>

#include "bench_common.hh"
#include "stats/summary.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 1.0,
        "Fig. 4: slowdown next to the stream_uncached bandwidth hog");

    std::vector<exec::ExperimentSpec> specs;
    for (const auto &app : Catalog::all())
        if (app.name != "stream_uncached")
            addHogSweep(specs, app.name, opts.scale);
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    Table t({"suite", "app", "slowdown", "sensitive(measured)",
             "sensitive(paper)", "match"});
    unsigned matches = 0, total = 0;
    RunningStat sens_stat;
    std::size_t k = 0;
    for (const auto &app : Catalog::all()) {
        if (app.name == "stream_uncached")
            continue; // the hog itself is the background
        const std::vector<double> hog_solo = takeTimes(res, k, 2);
        const double slow = hog_solo[0] / hog_solo[1];
        // The figure's "heavily affected" bar: many latency-exposed
        // apps sit at 1.1-1.3 next to the hog on real hardware too;
        // the paper's named sensitive set is the >=1.3 population.
        const bool measured = slow > 1.30;
        const bool ok = measured == app.expectedBandwidthSensitive;
        matches += ok;
        ++total;
        if (measured)
            sens_stat.add(slow);
        t.addRow({suiteName(app.suite), app.name, Table::num(slow, 3),
                  measured ? "yes" : "no",
                  app.expectedBandwidthSensitive ? "yes" : "no",
                  ok ? "yes" : "NO"});
    }
    emit(opts, "Figure 4: execution-time increase with the bandwidth hog",
         t);
    std::cout << "\nAgreement with the paper's sensitive set: " << matches
              << "/" << total << "\n";
    if (sens_stat.count()) {
        std::cout << "Mean slowdown of sensitive apps: "
                  << Table::num(sens_stat.mean(), 2) << "x (max "
                  << Table::num(sens_stat.max(), 2)
                  << "x; paper shows up to 3.8x)\n";
    }
    return 0;
}
