/**
 * @file
 * Figure 2 + Table 2: execution time versus LLC allocation (0.5-6 MB
 * via 1-12 ways) for every application, the multi-thread-count curves
 * for the paper's three showcase applications, and the LLC-utility
 * classification with the >10-APKI ("bold") marker.
 */

#include <iostream>

#include "bench_common.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    // Full-length runs by default: utility classification needs the
    // multi-MB working sets to establish reuse, which scaled-down runs
    // cannot (EXPERIMENTS.md discusses this warmup effect).
    const BenchOptions opts = parseArgs(
        argc, argv, 1.0,
        "Fig. 2 / Table 2: LLC-capacity sensitivity of all applications");

    // Fig. 2's three showcase apps at several thread counts.
    std::vector<std::pair<const char *, unsigned>> showcase;
    for (const char *name : {"swaptions", "tomcat", "471.omnetpp"})
        for (const unsigned threads : {1u, 2u, 4u, 8u})
            if (threads == 1 || Catalog::byName(name).maxThreads > 1)
                showcase.emplace_back(name, threads);

    std::vector<exec::ExperimentSpec> specs;
    for (const auto &[app, threads] : showcase)
        addWaySweep(specs, app, opts.scale, threads);
    for (const auto &app : Catalog::all())
        addWaySweep(specs, app.name, opts.scale);
    // The 4-thread showcase curves are also Table 2's; SweepRunner runs
    // each of those points once.
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    Table fig2({"app", "threads", "w1", "w2", "w3", "w4", "w5", "w6",
                "w7", "w8", "w9", "w10", "w11", "w12"});
    std::size_t k = 0;
    for (const auto &[app, threads] : showcase) {
        std::vector<std::string> row = {app, std::to_string(threads)};
        for (const double t : takeTimes(res, k, 12))
            row.push_back(Table::num(t * 1e3, 3));
        fig2.addRow(std::move(row));
    }
    emit(opts,
         "Figure 2: execution time (ms) vs LLC ways for representative "
         "sensitivity classes",
         fig2);

    // Table 2 for the whole suite at 4 threads.
    Table table2({"suite", "app", "apki", ">10apki", "t(2w)/t(12w)",
                  "t(8w)/t(12w)", "class(measured)", "class(paper)",
                  "match"});
    unsigned matches = 0, total = 0;
    for (const auto &app : Catalog::all()) {
        const std::vector<double> times = takeTimes(res, k, 12);
        const double apki = res[k - 1].apki; // at 12 ways
        const UtilClass measured = classifyUtility(times);
        // stream_uncached bypasses the LLC entirely; no utility class
        // is meaningful for it, so it is excluded from the agreement
        // count (the paper's table lists it only as a polluter).
        const bool counted = app.name != "stream_uncached";
        const bool ok = measured == app.expectedUtil;
        matches += ok && counted;
        total += counted;
        table2.addRow({suiteName(app.suite), app.name,
                       Table::num(apki, 1), apki > 10.0 ? "bold" : "",
                       Table::num(times[1] / times[11], 3),
                       Table::num(times[7] / times[11], 3),
                       utilClassName(measured),
                       utilClassName(app.expectedUtil),
                       ok ? "yes" : "NO"});
    }
    emit(opts, "Table 2: LLC allocation sensitivity classes", table2);
    std::cout << "\nTable 2 agreement with the paper: " << matches << "/"
              << total << " applications\n";
    return 0;
}
