/**
 * @file
 * N-app co-scheduling: run 2–64 applications on one simulated machine
 * under any @ref NPolicy, with offline miss-curve profiling for the
 * curve-driven policies and solo-baseline bookkeeping for the fairness
 * metrics.
 *
 * This is the N-app generalization of sim/experiment.hh's runPair /
 * core/co_scheduler.hh: apps are pinned to disjoint whole cores in
 * member order (both hyperthreads of a core filled first, §5), app 0
 * is the latency-sensitive foreground, and the run ends when every
 * non-continuous app completes. At N = 2 the construction sequence is
 * identical to runPair's, which the differential tests in
 * tests/test_sim.cc hold to bit-identity for all four ported policies.
 */

#ifndef CAPART_CORE_NAPP_HH
#define CAPART_CORE_NAPP_HH

#include <cstdint>
#include <map>
#include <optional>
#include <vector>

#include "core/dynamic_partitioner.hh"
#include "core/lfoc.hh"
#include "core/partitioner.hh"
#include "sim/run_result.hh"
#include "sim/system_config.hh"
#include "workload/app_params.hh"

namespace capart
{

/**
 * A machine sized for N-app consolidation: @p num_cores cores (2 HTs
 * each) and a @p llc_ways-way LLC at 128 KiB per way (so the set count
 * stays a power of two at any associativity, and scaled catalog
 * working sets still span multiple ways), with enough partition slots
 * for 64 co-runners. 16 cores / 20 ways models the commodity server
 * LFOC targets.
 */
SystemConfig nAppSystem(unsigned num_cores, unsigned llc_ways,
                        std::uint64_t seed = 12345);

/** One co-runner in an N-app schedule. */
struct NAppMember
{
    AppParams params;
    /** Hyperthreads (both HTs of a core are filled first). */
    unsigned threads = 2;
    /** Restart forever (background role); app 0 usually runs once. */
    bool continuous = true;
};

/** An offline-profiled miss-rate curve (analysis/mrc replay). */
struct MissCurve
{
    /** mpkiAtWays[w]: expected MPKI with w ways of the LLC, w = 0 is
     *  no cache at all. Size = llc ways + 1. */
    std::vector<double> mpkiAtWays;
    /** Cache-hierarchy accesses per kilo-instruction. */
    double apki = 0.0;
    /** Line references fed to the profiler. */
    std::uint64_t accesses = 0;
};

/**
 * Profile @p params by replaying one thread of its (scaled) reference
 * stream into the exact LRU stack-distance profiler and reading the
 * miss ratio at every way count of @p system's LLC. Deterministic in
 * (params, system seed, scale); capped at @p max_accesses references.
 */
MissCurve profileMissCurve(const AppParams &params,
                           const SystemConfig &system, double scale,
                           std::uint64_t max_accesses = 200'000);

/** Knobs of one N-app run. */
struct NAppOptions
{
    /** The machine; use nAppSystem() for more than 4 cores. */
    SystemConfig system{};
    /** Instruction-scale factor applied to every member. */
    double scale = 1.0;
    /** Foreground ways of the Biased policy; 0 = half the LLC. */
    unsigned biasedFgWays = 0;
    /** Reference cap of each miss-curve profile. */
    std::uint64_t profileAccesses = 200'000;
};

/** Outcome of one N-app run. */
struct NAppRunResult
{
    NPolicy policy = NPolicy::Shared;
    /** Per-app counters, indexed by member order. */
    std::vector<AppRunStats> apps;
    /** Completion time of app 0 (the responsiveness metric). */
    Seconds fgTime = 0.0;
    Joules socketEnergy = 0.0;
    Joules wallEnergy = 0.0;
    bool timedOut = false;
    /** Mask installations after the initial decision. */
    std::uint64_t remasks = 0;
    /** LFOC only: the classes assigned at the last decision. */
    std::vector<AppClass> lfocClasses;
};

/**
 * Run @p members under @p policy. Curve-driven policies (UCP, LFOC)
 * profile each member's miss curve first; UCP then allocates once up
 * front, LFOC keeps re-deciding every app-0 window so its
 * fractional-way bouncing is exercised. Dynamic reuses the hardened
 * Algorithm 6.2 controller with members 1..N-1 as the background set.
 */
NAppRunResult runNApp(const std::vector<NAppMember> &members,
                      NPolicy policy, const NAppOptions &opts);

/** Everything the N-app benches report about one (mix, policy) cell. */
struct NAppPolicySummary
{
    NPolicy policy = NPolicy::Shared;
    /** STP: sum of per-app speedups vs solo (N = no interference). */
    double stp = 0.0;
    /** Aggregate instructions per second across all apps. */
    double throughputIps = 0.0;
    /** max slowdown / min slowdown (LFOC's metric; 1 = fair). */
    double unfairness = 1.0;
    double worstSlowdown = 1.0;
    /** App 0's slowdown vs running alone on the machine. */
    double fgSlowdown = 1.0;
    Joules socketEnergyJ = 0.0;
    Joules wallEnergyJ = 0.0;
    /** Apps slowed by more than 10 % against running alone. */
    unsigned sloBreaches = 0;
    std::uint64_t remasks = 0;
    bool timedOut = false;
};

/** Knobs of an @ref NAppStudy. */
struct NAppStudyOptions
{
    NAppOptions run{};
};

/**
 * Runs one mix under several policies, caching the per-app solo
 * baselines (each app alone on the whole machine) that slowdown,
 * unfairness, STP, and SLO accounting share, and the members' miss
 * curves, profiled once for UCP and LFOC alike.
 */
class NAppStudy
{
  public:
    NAppStudy(std::vector<NAppMember> members,
              NAppStudyOptions opts = NAppStudyOptions{});

    /** Solo throughput baseline of member @p i (cached). */
    double soloIps(std::size_t i);

    /** The raw run under @p policy (cached). */
    const NAppRunResult &runPolicy(NPolicy policy);

    /** All headline metrics for @p policy. */
    NAppPolicySummary summarize(NPolicy policy);

  private:
    std::vector<NAppMember> members_;
    NAppStudyOptions opts_;
    std::vector<std::optional<double>> soloIps_;
    /** Member miss curves; empty until a curve-driven policy runs. */
    std::vector<MissCurve> curves_;
    std::map<NPolicy, NAppRunResult> runs_;
};

} // namespace capart

#endif // CAPART_CORE_NAPP_HH
