/**
 * @file
 * Figure 8: the full co-run matrix — normalized execution time of every
 * foreground application (columns in the paper) against every
 * background application (rows), with an unpartitioned shared LLC.
 * Also reports §5.1's derived observations: the sensitive set (average
 * column slowdown > 10 %), the aggressor set (average row slowdown >
 * 10 %), and the fraction of apps that barely slow down.
 *
 * The 45x45 sweep (plus 45 solo baselines) fans out through
 * SweepRunner: `--jobs=N` parallelizes it with bit-identical output,
 * `--resume` memoizes completed cells across interrupted runs.
 */

#include <iostream>
#include <map>
#include <vector>

#include "bench_common.hh"
#include "stats/summary.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.06,
        "Fig. 8: 45x45 shared-LLC co-run slowdown matrix (use --quick "
        "for representatives only)");

    const std::vector<AppParams> apps =
        opts.quick ? representatives() : Catalog::all();
    const std::size_t n = apps.size();

    // Solo baselines (4 threads on 2 cores, §5) first, then the full
    // matrix, all as one batch so the pool never idles between phases.
    std::vector<exec::ExperimentSpec> specs;
    specs.reserve(n + n * n);
    for (std::size_t i = 0; i < n; ++i)
        specs.push_back(exec::soloSpec(apps[i].name, 4, 12, opts.scale));
    for (std::size_t fg = 0; fg < n; ++fg)
        for (std::size_t bg = 0; bg < n; ++bg)
            specs.push_back(
                exec::pairSpec(apps[fg].name, apps[bg].name, opts.scale));

    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    // The matrix: slowdown[fg][bg].
    std::vector<std::vector<double>> slow(n, std::vector<double>(n, 1.0));
    for (std::size_t fg = 0; fg < n; ++fg)
        for (std::size_t bg = 0; bg < n; ++bg)
            slow[fg][bg] = res[n + fg * n + bg].time / res[fg].time;

    Table t([&] {
        std::vector<std::string> hdr = {"bg\\fg"};
        for (const auto &a : apps)
            hdr.push_back(a.name);
        return hdr;
    }());
    for (std::size_t bg = 0; bg < n; ++bg) {
        std::vector<std::string> row = {apps[bg].name};
        for (std::size_t fg = 0; fg < n; ++fg)
            row.push_back(Table::num(slow[fg][bg], 3));
        t.addRow(std::move(row));
    }
    emit(opts, "Figure 8: fg slowdown under shared LLC (row = bg, "
               "col = fg)",
         t);

    // §5.1 derived observations.
    RunningStat all;
    unsigned barely = 0;
    Table sens({"app", "avg-slowdown-as-fg", "sensitive",
                "avg-slowdown-caused-as-bg", "aggressor"});
    for (std::size_t i = 0; i < n; ++i) {
        RunningStat col, row;
        for (std::size_t j = 0; j < n; ++j) {
            if (i == j)
                continue;
            col.add(slow[i][j]); // i as foreground
            row.add(slow[j][i]); // i as background
            all.add(slow[i][j]);
        }
        if (col.mean() < 1.025)
            ++barely;
        sens.addRow({apps[i].name, Table::num(col.mean(), 3),
                     col.mean() > 1.10 ? "yes" : "no",
                     Table::num(row.mean(), 3),
                     row.mean() > 1.10 ? "yes" : "no"});
    }
    emit(opts, "Sensitive and aggressive applications (paper §5.1)",
         sens);
    std::cout << "\nAverage co-run slowdown: "
              << Table::num((all.mean() - 1.0) * 100.0, 1)
              << "% (paper: 6%)\nWorst case: "
              << Table::num((all.max() - 1.0) * 100.0, 1)
              << "% (paper: ~34.5%)\nApps slowing <2.5% on average: "
              << barely << "/" << n
              << " (paper: 22 of 45 slow down <2.5%)\n";
    return 0;
}
