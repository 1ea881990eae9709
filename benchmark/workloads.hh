/**
 * @file
 * The benchmark's workloads, and the checks and fidelity figures
 * computed from their sweep results.
 *
 * Every workload is a fixed list of ExperimentSpecs — the same specs a
 * figure bench builds — whose per-point seeds derive from the run's base
 * seed through exec::runSpec's mixSeed, exactly as in the figure
 * benches. See benchmark/README.md for why each workload exists.
 */

#ifndef CAPART_BENCHMARK_WORKLOADS_HH
#define CAPART_BENCHMARK_WORKLOADS_HH

#include <cstdint>
#include <string>
#include <vector>

#include "exec/sweep_runner.hh"

namespace capart::harness
{

struct Workload
{
    std::string name;
    /** Chrome-trace process id of this workload's trace file. */
    int pid = 0;
    /** Arm every obs export (ledger, attribution, trace, metrics). */
    bool obsArmed = false;
    std::vector<exec::ExperimentSpec> specs;
};

/**
 * Build workload @p name (pair_dynamic, napp_mixes, corun_shared or
 * napp_obs); @p smoke keeps three cheap points. Returns false for an
 * unknown name.
 */
bool makeWorkload(const std::string &name, bool smoke, Workload *out);

/**
 * Range checks on one computed point: "" when @p r is a valid outcome
 * of @p spec, else the reason it is not (a non-finite field, a missing
 * requested policy, non-positive background throughput, STP outside
 * (0, N], unfairness below 1, or the simulator's time-out flag).
 */
std::string checkPoint(const exec::ExperimentSpec &spec,
                       const exec::SweepResult &r);

/** FNV-1a over ResultCache::encode of @p results, in point order. */
std::uint64_t simDigest(const std::vector<exec::SweepResult> &results);

/**
 * What the simulated results say, as the paper's two halves: how much
 * the foreground slows down, and how much work the rest of the machine
 * gets done relative to the workload's baseline.
 */
struct Fidelity
{
    /** Mean foreground slowdown under the workload's headline policy. */
    double fgSlowdown = 0.0;
    /** Mean throughput relative to the workload's baseline. */
    double throughputRatio = 0.0;
    /** pair_dynamic only: |dynamic-vs-biased BG gain - 19| in points. */
    double paperGapPct = -1.0;
    /** pair_dynamic only: 100 * mean(dynamic - biased FG slowdown). */
    double fgCostPct = -1.0;
};

Fidelity fidelity(const Workload &w,
                  const std::vector<exec::SweepResult> &results);

/** Short label of point @p spec ("C1+C4", "m0x8", "fop+C2", "fop"). */
std::string pointLabel(const exec::ExperimentSpec &spec);

} // namespace capart::harness

#endif // CAPART_BENCHMARK_WORKLOADS_HH
