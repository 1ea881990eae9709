/**
 * @file
 * The paper's phase-detection algorithm (Algorithm 6.1).
 *
 * The detector watches the foreground application's LLC MPKI, sampled
 * once per monitoring window, and reports when the application enters a
 * new execution phase. Deviation from the running-average MPKI beyond
 * MPKI_THR1 starts a phase change; the change is considered finished
 * once the deviation falls back below MPKI_THR2.
 */

#ifndef CAPART_CORE_PHASE_DETECTOR_HH
#define CAPART_CORE_PHASE_DETECTOR_HH

#include <cstdint>

namespace capart
{

/** Detector outcomes, matching the pseudocode's return values. */
enum class PhaseEvent : int
{
    Stable = 0,      //!< inside a phase (new_phase == 0)
    InTransition = 1, //!< a phase change is still settling
    NewPhase = 2     //!< a phase change just started
};

/**
 * Floor of a relative-MPKI-change denominator (MPKI units), so a
 * near-zero level does not turn noise into a huge relative change.
 * The phase detector and Algorithm 6.2's shrink probe both divide by
 * at least this.
 */
inline constexpr double kMinMpkiDenominator = 0.5;

/** Tunables of Algorithm 6.1. The paper's values (§6.3). */
struct PhaseDetectorConfig
{
    /** Relative MPKI deviation that starts a phase change (THR1). */
    double thr1 = 0.02;
    /** Relative MPKI deviation that ends a phase change (THR2). */
    double thr2 = 0.02;
};

/** Stateful implementation of Algorithm 6.1. */
class PhaseDetector
{
  public:
    explicit PhaseDetector(
        const PhaseDetectorConfig &cfg = PhaseDetectorConfig{})
        : cfg_(cfg)
    {
    }

    /**
     * Feed the MPKI of one completed monitoring window.
     * @return the detector event for this window.
     */
    PhaseEvent step(double current_mpki);

    /** Running-average MPKI of the current phase. */
    double avgMpki() const { return avg_; }

    bool inTransition() const { return newPhase_; }

    /** Number of NewPhase events reported so far. */
    std::uint64_t phaseChanges() const { return changes_; }

    void reset();

  private:
    double relativeDelta(double current) const;

    PhaseDetectorConfig cfg_;
    bool newPhase_ = false;
    bool haveAvg_ = false;
    double avg_ = 0.0;
    std::uint64_t samplesInPhase_ = 0;
    std::uint64_t changes_ = 0;
};

} // namespace capart

#endif // CAPART_CORE_PHASE_DETECTOR_HH
