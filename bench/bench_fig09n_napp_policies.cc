/**
 * @file
 * Figure 9N: N-app consolidation beyond the paper's pairwise setup.
 *
 * Each spec hosts one deterministic catalog mix (sensitive + streaming
 * + light apps, see Catalog::nAppMix) on a 16-core / 20-way machine —
 * the commodity-server shape the LFOC line of work targets — and
 * evaluates the N-app policy roster on it: shared, fair, UCP with
 * lookahead, LFOC-style clustering, and the paper's dynamic
 * Algorithm 6.2 with one foreground and N-1 background peers. Reported
 * per (mix, policy): system throughput (STP), aggregate instructions
 * per second, the LFOC unfairness metric (max/min slowdown), app 0's
 * slowdown, socket/wall energy, SLO breaches (slowdown > 1.10), and
 * remask count. `--quick` runs the single 8-app headline mix the golden
 * suite pins; the full run adds 4- and 12-app mixes over three mix
 * variants.
 */

#include <iostream>

#include "bench_common.hh"
#include "core/partitioner.hh"
#include "workload/catalog.hh"

using namespace capart;
using namespace capart::bench;

namespace
{

constexpr unsigned kCores = 16;
constexpr unsigned kLlcWays = 20;
constexpr unsigned kThreadsEach = 2;

constexpr NPolicy kRoster[] = {NPolicy::Shared, NPolicy::Fair,
                               NPolicy::Ucp, NPolicy::Lfoc,
                               NPolicy::Dynamic};

std::vector<std::string>
mixNames(std::size_t n, unsigned variant)
{
    std::vector<std::string> names;
    for (const AppParams &a : Catalog::nAppMix(n, variant))
        names.push_back(a.name);
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    const BenchOptions opts = parseArgs(
        argc, argv, 0.04,
        "Fig. 9N: N-app mixes under shared/fair/UCP/LFOC/dynamic");

    unsigned policies = 0;
    for (const NPolicy p : kRoster)
        policies |= npolicyBit(p);

    struct MixSpec
    {
        std::size_t apps;
        unsigned variant;
    };
    std::vector<MixSpec> mixes;
    if (opts.quick) {
        mixes.push_back({8, 0});
    } else {
        for (const unsigned variant : {0u, 1u, 2u})
            for (const std::size_t n : {std::size_t{4}, std::size_t{8},
                                        std::size_t{12}})
                mixes.push_back({n, variant});
    }

    std::vector<exec::ExperimentSpec> specs;
    for (const MixSpec &m : mixes)
        specs.push_back(exec::nappSpec(mixNames(m.apps, m.variant),
                                       kCores, kLlcWays, policies,
                                       kThreadsEach, opts.scale));

    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    Table t({"mix", "apps", "policy", "stp", "throughput-mips",
             "unfairness", "fg-slowdown", "socket-j", "wall-j",
             "slo-breaches", "remasks"});
    // Per-policy accumulators for the cross-mix summary.
    double stp_sum[kNumNPolicies] = {};
    double unf_sum[kNumNPolicies] = {};
    unsigned breach_sum[kNumNPolicies] = {};
    for (std::size_t i = 0; i < mixes.size(); ++i) {
        const std::string mix_label = 'm' + std::to_string(mixes[i].variant) +
                                      'x' + std::to_string(mixes[i].apps);
        for (const NPolicy p : kRoster) {
            const exec::NAppPolicyOutcome &po =
                res[i].napp[static_cast<int>(p)];
            if (!po.present)
                continue;
            stp_sum[static_cast<int>(p)] += po.stp;
            unf_sum[static_cast<int>(p)] += po.unfairness;
            breach_sum[static_cast<int>(p)] += po.sloBreaches;
            t.addRow({mix_label, std::to_string(mixes[i].apps),
                      npolicyName(p), Table::num(po.stp, 3),
                      Table::num(po.throughputIps / 1e6, 1),
                      Table::num(po.unfairness, 3),
                      Table::num(po.fgSlowdown, 3),
                      Table::num(po.socketEnergyJ, 3),
                      Table::num(po.wallEnergyJ, 3),
                      std::to_string(po.sloBreaches),
                      std::to_string(po.remasks)});
        }
    }
    emit(opts, "Figure 9N: N-app policy comparison", t);

    const double cells = static_cast<double>(mixes.size());
    std::cout << "\nPolicy summary (averages over " << mixes.size()
              << " mix(es)):\n";
    for (const NPolicy p : kRoster) {
        const int idx = static_cast<int>(p);
        std::cout << "  " << npolicyName(p) << ": avg STP "
                  << Table::num(stp_sum[idx] / cells, 3)
                  << ", avg unfairness "
                  << Table::num(unf_sum[idx] / cells, 3)
                  << ", SLO breaches " << breach_sum[idx] << "\n";
    }
    return 0;
}
