/**
 * @file
 * Figure 9: foreground slowdown of every ordered representative pair
 * (Ci foreground + Cj continuously-running background) under the three
 * static consolidation approaches — shared, fair, and biased (§5.2).
 *
 * Each pair is one consolidation spec evaluating all three policies
 * (so cross-policy comparisons share one derived seed), fanned out
 * through SweepRunner (`--jobs=N`, `--resume`).
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
        "Fig. 9: fg slowdown for rep pairs under shared/fair/biased");

    const auto reps = representatives();
    const std::vector<exec::SweepResult> res =
        makeRunner(opts).run(fig09Specs(opts.scale));

    Table t({"pair", "fg", "bg", "shared", "fair", "biased",
             "biased-fg-ways"});
    RunningStat sh_stat, fa_stat, bi_stat;
    unsigned bi_clean = 0, sh_clean = 0, cells = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        for (std::size_t j = 0; j < reps.size(); ++j) {
            const exec::SweepResult &r = res[i * reps.size() + j];
            const double sh =
                r.policy[static_cast<int>(Policy::Shared)].fgSlowdown;
            const double fa =
                r.policy[static_cast<int>(Policy::Fair)].fgSlowdown;
            const exec::PolicyOutcome &bi =
                r.policy[static_cast<int>(Policy::Biased)];
            sh_stat.add(sh);
            fa_stat.add(fa);
            bi_stat.add(bi.fgSlowdown);
            ++cells;
            sh_clean += sh < 1.02;
            bi_clean += bi.fgSlowdown < 1.02;
            t.addRow({repLabel(i) + "+" + repLabel(j), reps[i].name,
                      reps[j].name, Table::num(sh, 3),
                      Table::num(fa, 3), Table::num(bi.fgSlowdown, 3),
                      std::to_string(bi.fgWays)});
        }
    }
    t.addRow({"Average", "", "", Table::num(sh_stat.mean(), 3),
              Table::num(fa_stat.mean(), 3),
              Table::num(bi_stat.mean(), 3), ""});
    emit(opts, "Figure 9: foreground slowdown by policy", t);

    std::cout << "\nPolicy summary (paper values in parentheses):\n"
              << "  shared: avg "
              << Table::num((sh_stat.mean() - 1) * 100, 1) << "% (5.9%), "
              << "worst " << Table::num((sh_stat.max() - 1) * 100, 1)
              << "% (34.5%)\n"
              << "  fair:   avg "
              << Table::num((fa_stat.mean() - 1) * 100, 1) << "% (6.1%), "
              << "worst " << Table::num((fa_stat.max() - 1) * 100, 1)
              << "% (16.3%)\n"
              << "  biased: avg "
              << Table::num((bi_stat.mean() - 1) * 100, 1) << "% (2.3%), "
              << "worst " << Table::num((bi_stat.max() - 1) * 100, 1)
              << "% (7.4%)\n"
              << "  no-slowdown pairs: biased " << bi_clean << "/"
              << cells << " vs shared " << sh_clean << "/" << cells
              << " (paper: half vs a quarter)\n";
    return 0;
}
