/**
 * @file
 * Figure 13: background throughput of every ordered representative
 * pair under the dynamic partitioning algorithm and under an
 * unpartitioned shared LLC, both normalized to the best static
 * (biased) allocation — plus the §6.4 foreground-protection check
 * (dynamic within ~2 % of best static). Pairs fan out through
 * SweepRunner (`--jobs=N`, `--resume`).
 */

#include <iostream>

#include "bench_common.hh"
#include "stats/summary.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.06,
        "Fig. 13: background throughput of dynamic partitioning vs "
        "best-static");

    const auto reps = representatives();
    const std::vector<exec::SweepResult> res =
        makeRunner(opts).run(fig13Specs(opts.scale));

    Table t({"pair", "fg", "bg", "shared/static", "dynamic/static",
             "fg: dyn-vs-static", "settled-fg-ways"});
    RunningStat shared_ratio, dyn_ratio, fg_delta;
    double dyn_best = 0.0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        for (std::size_t j = 0; j < reps.size(); ++j) {
            const exec::SweepResult &r = res[i * reps.size() + j];
            const exec::PolicyOutcome &bi =
                r.policy[static_cast<int>(Policy::Biased)];
            const exec::PolicyOutcome &sh =
                r.policy[static_cast<int>(Policy::Shared)];
            const exec::PolicyOutcome &dy =
                r.policy[static_cast<int>(Policy::Dynamic)];

            const double r_sh = sh.bgThroughput / bi.bgThroughput;
            const double r_dy = dy.bgThroughput / bi.bgThroughput;
            shared_ratio.add(r_sh);
            dyn_ratio.add(r_dy);
            dyn_best = std::max(dyn_best, r_dy);
            fg_delta.add(dy.fgSlowdown - bi.fgSlowdown);
            t.addRow({repLabel(i) + "+" + repLabel(j), reps[i].name,
                      reps[j].name, Table::num(r_sh, 3),
                      Table::num(r_dy, 3),
                      Table::num(dy.fgSlowdown - bi.fgSlowdown, 3),
                      std::to_string(dy.fgWays)});
        }
    }
    t.addRow({"Average", "", "", Table::num(shared_ratio.mean(), 3),
              Table::num(dyn_ratio.mean(), 3),
              Table::num(fg_delta.mean(), 3), ""});
    emit(opts, "Figure 13: background throughput relative to the best "
               "static allocation",
         t);

    // Signed percentage, the sign taken from the printed value.
    const auto pct = [](double ratio) {
        const std::string v = Table::num((ratio - 1) * 100, 1);
        return (v.front() == '-' ? "" : "+") + v + "%";
    };
    std::cout << "\nDynamic vs best-static background throughput: "
              << pct(dyn_ratio.mean()) << " average (paper 19%), best "
              << Table::num(dyn_best, 2) << "x (paper up to 2.5x)\n"
              << "Shared vs best-static: " << pct(shared_ratio.mean())
              << " (paper 53%, but without isolation)\n"
              << "Foreground cost of dynamic vs best static: "
              << Table::num(fg_delta.mean() * 100, 1)
              << " percentage points average (paper: within 1-2%)\n";
    return 0;
}
