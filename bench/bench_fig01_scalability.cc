/**
 * @file
 * Figure 1 + Table 1: normalized speedup of every application at 1-8
 * threads, and the resulting scalability classification, compared with
 * the paper's published classes.
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
        argc, argv, 0.2,
        "Fig. 1 / Table 1: thread scalability of all 45 applications");

    std::vector<exec::ExperimentSpec> specs;
    for (const auto &app : Catalog::all())
        addThreadSweep(specs, app.name, opts.scale);
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    Table fig1({"suite", "app", "s1", "s2", "s3", "s4", "s5", "s6", "s7",
                "s8", "class(measured)", "class(paper)", "match"});
    unsigned matches = 0, total = 0;
    std::size_t k = 0;
    for (const auto &app : Catalog::all()) {
        const std::vector<double> times = takeTimes(res, k, 8);
        std::vector<std::string> row = {suiteName(app.suite), app.name};
        for (const double t : times)
            row.push_back(Table::num(times.front() / t, 2));
        const ScalClass measured = classifyScalability(times);
        row.push_back(scalClassName(measured));
        row.push_back(scalClassName(app.expectedScal));
        const bool ok = measured == app.expectedScal;
        row.push_back(ok ? "yes" : "NO");
        matches += ok;
        ++total;
        fig1.addRow(std::move(row));
    }
    emit(opts, "Figure 1: speedup vs threads (normalized to 1 thread)",
         fig1);
    std::cout << "\nTable 1 agreement with the paper: " << matches << "/"
              << total << " applications\n";
    return 0;
}
