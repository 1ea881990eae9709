/**
 * @file
 * Online foreground-responsiveness SLO monitor.
 *
 * The paper's headline claim is that partitioning preserves
 * responsiveness: the foreground's slowdown under consolidation stays
 * within 1–2% of running alone on its half of the machine. This
 * monitor turns that claim into an *online* service-level objective,
 * evaluated window by window while the co-schedule runs instead of
 * once at the end.
 *
 * Per foreground perf window it computes an instantaneous slowdown
 * estimate (baseline alone-at-half-machine IPS divided by the window's
 * IPS) and maintains mean slowdown over a short and a long sliding
 * window. Each mean is converted to a *burn rate* against the SLO
 * budget:
 *
 *     burn = (mean_slowdown - 1) / (kObjective - 1)
 *
 * so burn 1.0 means "consuming the error budget exactly as fast as the
 * SLO allows" and burn 2.0 means "twice as fast". A breach is declared
 * only when the current window itself violates the SLO *and* BOTH
 * sliding windows burn past the threshold, for kConfirmWindows
 * consecutive evaluations — the standard multi-window burn-rate
 * alerting shape: the short window makes detection fast, the long
 * window keeps one noisy sample from paging anyone, and the live
 * violation requirement plus the confirmation count remove
 * single-window flapping (one extreme spike echoes in the means for
 * kShortWindows evaluations but is not a *sustained* violation).
 * Recovery is symmetric: kRecoveryWindows consecutive non-burning
 * evaluations end the breach. The objective and the window counts
 * are constants: the monitor checks the paper's 1–2% claim, which is
 * not a setting.
 *
 * The monitor is an observer, never an actuator: it reads windows,
 * updates counters and journals one `slo` record per evaluation (its
 * slowdown, both burn rates, and the `in_breach` state the evaluation
 * left, so each breach and recovery shows once, as a change of
 * `in_breach` between records). It never touches partition state, so
 * the co-scheduler evaluates it over a run's recorded windows after
 * the run, and enabling it cannot change simulation results (tested
 * bit-identical on/off).
 */

#ifndef CAPART_CORE_SLO_MONITOR_HH
#define CAPART_CORE_SLO_MONITOR_HH

#include <cstdint>
#include <deque>

#include "common/types.hh"
#include "perf/perf_counters.hh"

namespace capart
{

/** What one window's evaluation changed. */
enum class SloTransition
{
    None,     //!< state unchanged (healthy stayed healthy, or vice versa)
    Breach,   //!< sustained burn just crossed into breach
    Recovered //!< sustained calm just ended a breach
};

/** Windowed FG-slowdown SLO evaluation; see file comment. */
class SloMonitor
{
  public:
    /**
     * The responsiveness objective as a slowdown bound: 1.02 = the FG
     * may run at most 2% slower than alone on its half (the paper's
     * 1–2% band).
     */
    static constexpr double kObjective = 1.02;
    /** Perf windows in the fast-detection sliding window. */
    static constexpr unsigned kShortWindows = 4;
    /** Perf windows in the noise-suppressing sliding window. */
    static constexpr unsigned kLongWindows = 16;
    /** Burn rate both windows must exceed to count as burning. */
    static constexpr double kBurnThreshold = 1.0;
    /** Consecutive burning evaluations before a breach is declared. */
    static constexpr unsigned kConfirmWindows = 2;
    /** Consecutive clean evaluations before recovery is declared. */
    static constexpr unsigned kRecoveryWindows = 4;

    /**
     * Set the alone-at-half-machine foreground throughput the slowdown
     * is measured against. Must be called (with a positive value)
     * before windows arrive; windows observed earlier are ignored.
     */
    void setBaseline(double baseline_ips);
    double baseline() const { return baselineIps_; }

    /**
     * Evaluate one closed foreground perf window at simulated time
     * @p now (used only to stamp its journal record).
     */
    SloTransition onWindow(Seconds now, const PerfWindow &w);

    /** The monitor currently considers the SLO breached. */
    bool inBreach() const { return inBreach_; }
    /** Breaches declared over the monitor's lifetime. */
    std::uint64_t breaches() const { return breaches_; }
    /** Windows evaluated (excludes unusable ones). */
    std::uint64_t windows() const { return windows_; }
    /** Windows whose evaluation left the SLO in breach. */
    std::uint64_t breachWindows() const { return breachWindows_; }
    /** Newest short/long-window burn rates (0 until enough data). */
    double shortBurn() const { return shortBurn_; }
    double longBurn() const { return longBurn_; }
    /** Newest single-window slowdown estimate. */
    double lastSlowdown() const { return lastSlowdown_; }

  private:
    double windowMean(const std::deque<double> &win) const;

    double baselineIps_ = 0.0;
    std::deque<double> shortWin_;
    std::deque<double> longWin_;
    bool inBreach_ = false;
    unsigned burnStreak_ = 0;
    unsigned calmStreak_ = 0;
    std::uint64_t breaches_ = 0;
    std::uint64_t windows_ = 0;
    std::uint64_t breachWindows_ = 0;
    double shortBurn_ = 0.0;
    double longBurn_ = 0.0;
    double lastSlowdown_ = 0.0;
};

} // namespace capart

#endif // CAPART_CORE_SLO_MONITOR_HH
