/**
 * @file
 * The paper's online dynamic cache-partitioning algorithm (§6,
 * Algorithm 6.2), implemented as a @ref PartitionController.
 *
 * On every foreground phase change the controller gives the foreground
 * as much cache as possible (11 of 12 ways on the paper's machine),
 * then gradually shrinks the allocation one way at a time until the
 * MPKI reacts, at which point it backs off one step and settles.
 * Background applications always receive the complementary ways, so
 * every way the foreground releases immediately becomes background
 * capacity. Remasking never flushes data (§2.1), which keeps
 * reallocation cheap — exactly the property the hardware provides.
 *
 * Beyond the paper, the controller is hardened for production
 * telemetry and control planes that are allowed to fail (see
 * DESIGN.md, "Fault model & graceful degradation"):
 *
 *  - windows are validity-checked (NaN/negative/inconsistent samples and
 *    one-window outlier spikes are rejected; two consecutive outliers
 *    confirm a genuine shift and pass through);
 *  - mask applications go through a @ref Remasker and are retried with
 *    bounded exponential backoff when they fail transiently;
 *  - a watchdog falls back to the safe fair static partition after K
 *    consecutive telemetry or remask failures (or prolonged telemetry
 *    silence), and resumes dynamic control once signals stabilize;
 *  - every degradation decision lands in a structured health log.
 *
 * The controller's only settings are the paper's three thresholds
 * (@ref DynamicPartitionerConfig). The smoothing weight, the floors
 * and the hardening values are named constants, and the probe ceiling
 * is the machine's LLC ways minus one.
 */

#ifndef CAPART_CORE_DYNAMIC_PARTITIONER_HH
#define CAPART_CORE_DYNAMIC_PARTITIONER_HH

#include <cstdint>
#include <vector>

#include "core/decision_journal.hh"
#include "core/health.hh"
#include "core/phase_detector.hh"
#include "core/remasker.hh"
#include "sim/system.hh"

namespace capart
{

/**
 * EWMA weight of the newest window's MPKI (1 = no smoothing). Both
 * online controllers smooth with it: Algorithm 6.2 and N-app's LFOC
 * controller (core/napp), so they react on the same timescale.
 */
inline constexpr double kMpkiSmoothing = 0.25;

/**
 * The settings of Algorithm 6.2: the paper's three thresholds.
 *
 * The paper's values are 0.02/0.02/0.05 on 100 ms windows of a ~100 s
 * application (§6.3). Our scaled applications sample windows covering
 * ~10^4x fewer instructions, so per-window MPKI carries real sampling
 * noise; the defaults here widen the thresholds, and the controller
 * smooths the MPKI (kMpkiSmoothing), to keep the *algorithm's*
 * behaviour (probe down, react, settle) identical under scaling. See
 * EXPERIMENTS.md. Everything else the controller reads is a named
 * constant, and its probe ceiling comes from the machine.
 */
struct DynamicPartitionerConfig
{
    PhaseDetectorConfig detector{.thr1 = 0.08, .thr2 = 0.08};
    /** Relative MPKI change treated as "no reaction" (MPKI_THR3). */
    double thr3 = 0.10;

    /** Panics with a precise message on a non-positive threshold. */
    void validate() const;
};

/** One reallocation decision, kept for Fig. 12-style traces. */
struct AllocationEvent
{
    Seconds time = 0.0;
    unsigned fgWays = 0;
    double windowMpki = 0.0;
    PhaseEvent phase = PhaseEvent::Stable;
};

/** Online utility-driven repartitioning of the LLC (Algorithm 6.2). */
class DynamicPartitioner : public PartitionController
{
  public:
    // ---- graceful degradation under faulty telemetry/control --------
    /**
     * A window whose MPKI exceeds this multiple of the smoothed level
     * is quarantined as a suspected counter glitch; a second
     * consecutive outlier confirms a genuine phase shift and passes.
     */
    static constexpr double kSpikeRejectFactor = 8.0;
    /**
     * Consecutive telemetry rejections — or consecutive failed remask
     * attempts — that trip the watchdog into the fair fallback.
     */
    static constexpr unsigned kWatchdogThreshold = 4;
    /**
     * Background windows without any foreground telemetry before the
     * watchdog declares the foreground's monitoring dead.
     */
    static constexpr unsigned kTelemetryTimeoutWindows = 8;
    /** Consecutive healthy windows needed to resume dynamic mode. */
    static constexpr unsigned kRecoveryWindows = 3;

    /**
     * The probe ceiling (11 of 12 ways on the paper's machine: the
     * background keeps one) is the machine's LLC ways minus one, taken
     * at the first window; a machine with fewer than 4 ways panics
     * there, as the probe could not move.
     *
     * @param fg       the latency-sensitive foreground application.
     * @param bgs      background peers sharing the complement partition.
     * @param cfg      the thresholds (validated at construction).
     * @param remasker mask-application path; nullptr = the infallible
     *                 direct path (the paper's prototype semantics).
     */
    DynamicPartitioner(
        AppId fg, std::vector<AppId> bgs,
        const DynamicPartitionerConfig &cfg = DynamicPartitionerConfig{},
        Remasker *remasker = nullptr);

    void onWindow(System &sys, AppId app, const PerfWindow &w) override;

    /** Foreground ways held (0 until the first window). */
    unsigned fgWays() const { return fgWays_; }
    const PhaseDetector &detector() const { return detector_; }
    std::uint64_t reallocations() const { return reallocations_; }
    const std::vector<AllocationEvent> &history() const { return history_; }

    // ---------------- health and degradation introspection -----------
    ControlMode mode() const { return mode_; }
    const std::vector<HealthEvent> &healthLog() const { return health_; }
    /** Telemetry windows rejected by validity checks. */
    std::uint64_t rejectedSamples() const { return rejectedSamples_; }
    /** Mask applications attempted / failed (including retries). */
    std::uint64_t remaskAttempts() const { return remaskAttempts_; }
    std::uint64_t remaskFailures() const { return remaskFailures_; }

  private:
    bool apply(System &sys, unsigned fg_ways);
    void requestWays(System &sys, unsigned fg_ways);
    void serviceRetry(System &sys);
    /** Snapshot the decision inputs as the control step sees them. */
    DecisionInputs snapshotInputs(double raw_mpki, double smoothed_mpki,
                                  PhaseEvent ev) const;
    /** Append one decision record to the obs journal (obs-gated). */
    void journalDecision(System &sys, const DecisionInputs &in,
                         const Decision &out);
    void enterFallback(System &sys, unsigned count, bool remask_cause);
    void resumeDynamic(System &sys);
    void pushHealth(System &sys, HealthEventKind kind, unsigned count);
    /** Validity verdicts for one foreground window. */
    enum class Sample
    {
        Valid,
        Garbage, //!< NaN / negative / counter-inconsistent window
        Outlier  //!< suspected one-window counter spike
    };
    Sample classify(const PerfWindow &w);

    AppId fg_;
    std::vector<AppId> bgs_;
    DynamicPartitionerConfig cfg_;
    PhaseDetector detector_;
    DirectRemasker direct_;
    Remasker *remasker_;

    /** The probe ceiling; 0 until the first window sets it. */
    unsigned maxFgWays_ = 0;
    bool installed_ = false;
    bool phaseStarts_ = false;
    bool haveLast_ = false;
    double lastMpki_ = 0.0;
    double smoothed_ = 0.0;
    bool haveSmoothed_ = false;
    unsigned fgWays_ = 0;
    std::uint64_t reallocations_ = 0;
    std::vector<AllocationEvent> history_;

    // ---------------- degradation state -------------------------------
    ControlMode mode_ = ControlMode::Dynamic;
    std::vector<HealthEvent> health_;
    unsigned badTelemetry_ = 0;   //!< consecutive rejected FG windows
    unsigned fgSilence_ = 0;      //!< BG windows since last FG window
    unsigned consecRemaskFails_ = 0;
    unsigned healthyStreak_ = 0;  //!< valid FG windows while in fallback
    /** The last fallback was caused by remask failures (not telemetry). */
    bool remaskCausedFallback_ = false;
    /**
     * Dynamic control just resumed from a remask-caused fallback: the
     * first write is a probe, and its failure re-trips the watchdog
     * immediately (healthy telemetry says nothing about a control plane
     * that was recently broken).
     */
    bool remaskProbation_ = false;
    bool haveSuspect_ = false;
    double suspectMpki_ = 0.0;
    bool haveFgWindow_ = false;
    Seconds lastFgEnd_ = 0.0;
    bool retryPending_ = false;
    unsigned retryWays_ = 0;
    unsigned retryCount_ = 0;
    unsigned retryWait_ = 0;
    std::uint64_t rejectedSamples_ = 0;
    std::uint64_t remaskAttempts_ = 0;
    std::uint64_t remaskFailures_ = 0;
};

} // namespace capart

#endif // CAPART_CORE_DYNAMIC_PARTITIONER_HH
