/**
 * @file
 * High-level consolidation API: run a foreground/background pair under
 * any of the paper's policies and derive the §5–§6 evaluation metrics
 * (foreground slowdown, background throughput, energy vs sequential,
 * weighted speedup).
 *
 * This is the facade applications and all bench binaries use; see
 * examples/quickstart.cpp.
 */

#ifndef CAPART_CORE_CO_SCHEDULER_HH
#define CAPART_CORE_CO_SCHEDULER_HH

#include <map>
#include <memory>
#include <optional>

#include "core/dynamic_partitioner.hh"
#include "core/slo_monitor.hh"
#include "core/static_policies.hh"
#include "sim/experiment.hh"
#include "workload/app_params.hh"

namespace capart
{

/** Knobs of a consolidation study. */
struct CoScheduleOptions
{
    /** Hyperthreads per application (4 = two whole cores each, §5). */
    unsigned threadsEach = 4;
    /** Instruction-scale factor applied to both applications. */
    double scale = 1.0;
    SystemConfig system{};
    DynamicPartitionerConfig dynamic{};
    /**
     * Evaluate a @ref SloMonitor over each continuous (responsiveness)
     * run's foreground windows after the run. Pure observation: it adds
     * no simulation, and results are bit-identical with it on or off.
     */
    bool monitorSlo = false;
};

/** Everything the paper reports about one (pair, policy) cell. */
struct ConsolidationSummary
{
    Policy policy = Policy::Shared;
    /** FG co-run time / FG solo time at the same core allocation. */
    double fgSlowdown = 1.0;
    /** Background instructions per second during the FG run. */
    double bgThroughput = 0.0;
    /** Socket energy / summed sequential whole-machine socket energy. */
    double energyVsSequential = 1.0;
    /** Wall energy / summed sequential whole-machine wall energy. */
    double wallEnergyVsSequential = 1.0;
    /** Sequential makespan / consolidated makespan (Fig. 11). */
    double weightedSpeedup = 1.0;
    /** Ways the policy gave the foreground (12 = unpartitioned). */
    unsigned fgWays = 0;
};

/**
 * Runs one foreground/background pair under the paper's policies,
 * caching solo runs and the biased search so repeated queries are cheap.
 */
class CoScheduler
{
  public:
    CoScheduler(const AppParams &fg, const AppParams &bg,
                const CoScheduleOptions &opts = CoScheduleOptions{});

    /** FG alone on its half of the machine (slowdown baseline, Fig. 9). */
    const SoloResult &fgSoloHalf();

    /** FG alone on the whole machine (sequential baseline, Fig. 10). */
    const SoloResult &fgSoloFull();

    /** BG alone on the whole machine (sequential baseline, Fig. 10). */
    const SoloResult &bgSoloFull();

    /** The oracle biased-partition search (§5.2). */
    const BiasedSearchResult &biased();

    /**
     * Run the pair under @p policy. The continuous Biased run is the
     * biased search's winning run, not a fresh simulation of the same
     * split.
     * @param bg_continuous  background restarts until FG finishes
     *        (use true for slowdown/throughput studies, false for
     *        energy/weighted-speedup studies, matching the paper).
     */
    const PairResult &runPolicy(Policy policy, bool bg_continuous);

    /** All §5–§6 metrics for @p policy. */
    ConsolidationSummary summarize(Policy policy);

    /** The dynamic controller of the last Dynamic run, if any. */
    const DynamicPartitioner *lastDynamicController() const
    {
        return dynCtrl_.get();
    }

    /**
     * The SLO monitor of the last monitored (continuous) run, or
     * nullptr when `monitorSlo` is off / no continuous run happened.
     */
    const SloMonitor *lastSloMonitor() const { return sloMonitor_.get(); }

  private:
    PairOptions basePairOptions(bool bg_continuous) const;
    /** Run app @p app (0 = FG, 1 = BG) alone on @p threads. */
    SoloResult solo(unsigned app, unsigned threads) const;

    AppParams fg_;
    AppParams bg_;
    CoScheduleOptions opts_;

    std::optional<SoloResult> fgSoloHalf_;
    std::optional<SoloResult> fgSoloFull_;
    std::optional<SoloResult> bgSoloFull_;
    std::optional<BiasedSearchResult> biased_;
    std::map<std::pair<Policy, bool>, PairResult> pairRuns_;
    std::unique_ptr<DynamicPartitioner> dynCtrl_;
    std::unique_ptr<SloMonitor> sloMonitor_;
};

} // namespace capart

#endif // CAPART_CORE_CO_SCHEDULER_HH
