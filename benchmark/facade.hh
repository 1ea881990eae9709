/**
 * @file
 * The traced pass: every point of a workload recomputed through the
 * layers' public facades (CoScheduler, NAppStudy, runSolo/runPair,
 * profileMissCurve) with a span around each call, so host time splits
 * into solo baselines, the biased oracle search, each policy's runs,
 * and miss-curve profiling. The pass assembles the same SweepResult
 * exec::runSpec would; its digest must equal the untraced pass's.
 */

#ifndef CAPART_BENCHMARK_FACADE_HH
#define CAPART_BENCHMARK_FACADE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "spans.hh"
#include "workloads.hh"

namespace capart::harness
{

/** What the traced pass measured besides its spans. */
struct FacadeOutcome
{
    std::vector<exec::SweepResult> results;
    /** Biased-search splits evaluated, summed over points. */
    std::uint64_t biasedSplits = 0;
    /** Points whose dynamic controller fell back to the fair split,
     *  with their FallbackEntered counts. */
    std::vector<std::pair<std::string, std::uint64_t>> fallbacks;
    /** Dynamic-controller telemetry windows rejected, all points. */
    std::uint64_t rejectedSamples = 0;
    /** Mask installations after the initial decision, all points. */
    std::uint64_t remasks = 0;
    /** Host ms of one profileMissCurve call, one entry per member. */
    std::vector<double> missCurveMs;
    /** Estimated ms of UCP + LFOC re-profiling inside the points. */
    double missCurveInPointsMs = 0.0;
    /** Host ns and retired instructions of the timed simulator runs. */
    std::int64_t simNs = 0;
    double simInsts = 0.0;
};

/**
 * Recompute every point of @p w at base seed @p seed through the
 * facades, recording spans on @p rec. @p log_path receives the
 * structured log (the N-app dynamic controller's health events are
 * counted from it).
 */
FacadeOutcome runFacade(const Workload &w, std::uint64_t seed,
                        SpanRecorder &rec, const std::string &log_path);

} // namespace capart::harness

#endif // CAPART_BENCHMARK_FACADE_HH
