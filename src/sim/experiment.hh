/**
 * @file
 * Canned experiment harnesses: solo characterization runs and
 * foreground/background co-scheduling runs with the paper's pinning
 * discipline (each app gets whole cores; both hyperthreads of a core
 * are filled first; co-run apps use disjoint cores, §5).
 */

#ifndef CAPART_SIM_EXPERIMENT_HH
#define CAPART_SIM_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "mem/way_mask.hh"
#include "sim/run_result.hh"
#include "sim/system.hh"
#include "sim/system_config.hh"
#include "workload/app_params.hh"

namespace capart
{

/** Options for a solo characterization run (§3). */
struct SoloOptions
{
    /** Hyperthreads given to the app (both HTs of a core first). */
    unsigned threads = 4;
    /** LLC ways the app may replace into (12 = whole cache). */
    unsigned ways = 12;
    /** Instruction-count scale factor for faster sweeps. */
    double scale = 1.0;
    SystemConfig system{};
};

/** Outcome of a solo run. */
struct SoloResult
{
    AppRunStats app;
    Seconds time = 0.0;
    Joules socketEnergy = 0.0;
    Joules wallEnergy = 0.0;
    bool timedOut = false;
};

/** Run one application alone on the machine. */
SoloResult runSolo(const AppParams &params, const SoloOptions &opts);

/** Options for a foreground+background co-run (§5). */
struct PairOptions
{
    /** Hyperthreads for each app (4 = 2 cores x 2 HT, the paper's §5). */
    unsigned fgThreads = 4;
    unsigned bgThreads = 4;
    /** Way masks; empty mask means "all ways" (shared). */
    WayMask fgMask{};
    WayMask bgMask{};
    /** Background restarts continuously (paper's §5 setup). */
    bool bgContinuous = true;
    double scale = 1.0;
    SystemConfig system{};
    /** Optional controller driving dynamic repartitioning. */
    PartitionController *controller = nullptr;
    /**
     * Called after both apps are added and masks/controller installed,
     * immediately before run() — the place to attach fault injectors or
     * extra monitoring to the freshly built System.
     */
    std::function<void(System &sys, AppId fg, AppId bg)> prepare;
};

/** Outcome of a co-run. */
struct PairResult
{
    AppRunStats fg;
    AppRunStats bg;
    Seconds fgTime = 0.0;
    /** Background instructions retired per second of foreground run. */
    double bgThroughput = 0.0;
    Joules socketEnergy = 0.0;
    Joules wallEnergy = 0.0;
    bool timedOut = false;
    /** The foreground's perf windows, in the order they closed. */
    std::vector<PerfWindow> fgWindows;
};

/**
 * Run @p fg on the first half of the cores and @p bg on the second half
 * simultaneously; the run ends when the foreground completes.
 */
PairResult runPair(const AppParams &fg, const AppParams &bg,
                   const PairOptions &opts);

/** Contiguous low-ways mask for the foreground, rest for background. */
struct SplitMasks
{
    WayMask fg;
    WayMask bg;
};

/** Split @p total_ways giving the low @p fg_ways to the foreground. */
SplitMasks splitWays(unsigned fg_ways, unsigned total_ways);

/**
 * Mark the start of one System run of a study point in the calling
 * thread's attribution scope. A point's scope spans every run of its
 * study (its policy runs, solo baselines and biased-search splits),
 * each restarting simulated time and the quantum counter at zero, so
 * one `run` journal record per run, in run order, lets a reader split
 * the point's samples and journal by run. @p rule names the run (a
 * policy, or "solo"); the fields are `num_apps`, `total_ways` and then
 * @p extra. A no-op while observability is off.
 */
void journalRunStart(const char *rule, std::size_t num_apps,
                     unsigned total_ways,
                     std::vector<std::pair<std::string, double>> extra = {});

} // namespace capart

#endif // CAPART_SIM_EXPERIMENT_HH
