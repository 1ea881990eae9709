/**
 * @file
 * The paper's headline table (§1/§8): average energy improvement,
 * average throughput improvement, and average/worst-case foreground
 * slowdown for consolidation with shared, fair, biased, and dynamic
 * LLC management, over the ordered representative pairs: Fig. 9's
 * points for shared, fair and biased, Fig. 13's for dynamic.
 */

#include <iostream>
#include <map>

#include "bench_common.hh"
#include "stats/summary.hh"

using namespace capart;
using namespace capart::bench;

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.06, "Headline summary: §1's comparison table");

    std::vector<exec::ExperimentSpec> specs = fig09Specs(opts.scale);
    const std::size_t n = specs.size(); // Fig. 13's k-th point is n + k
    const std::vector<exec::ExperimentSpec> fig13 = fig13Specs(opts.scale);
    specs.insert(specs.end(), fig13.begin(), fig13.end());
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    struct PolicyAgg
    {
        RunningStat energy, speedup, slowdown;
    };
    std::map<Policy, PolicyAgg> agg;
    const auto add = [&](Policy p, const exec::SweepResult &r) {
        const exec::PolicyOutcome &o = r.policy[static_cast<int>(p)];
        agg[p].energy.add(o.energyVsSequential);
        agg[p].speedup.add(o.weightedSpeedup);
        agg[p].slowdown.add(o.fgSlowdown);
    };
    for (std::size_t k = 0; k < n; ++k) {
        for (const Policy p : {Policy::Shared, Policy::Fair, Policy::Biased})
            add(p, res[k]);
        add(Policy::Dynamic, res[n + k]);
    }

    Table t({"policy", "energy-improvement", "throughput-improvement",
             "fg-slowdown-avg", "fg-slowdown-worst"});
    for (const auto &[p, a] : agg) {
        t.addRow({policyName(p),
                  Table::num((1 - a.energy.mean()) * 100, 1) + "%",
                  Table::num((a.speedup.mean() - 1) * 100, 1) + "%",
                  Table::num((a.slowdown.mean() - 1) * 100, 1) + "%",
                  Table::num((a.slowdown.max() - 1) * 100, 1) + "%"});
    }
    emit(opts, "Headline comparison (paper: shared 10%/54%/6%/34.5%, "
               "biased 12%/60%/2.3%/7.4%)",
         t);
    return 0;
}
