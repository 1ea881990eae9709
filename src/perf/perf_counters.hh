/**
 * @file
 * Windowed performance monitoring, modeled on the libpfm sampling loop
 * of the paper's framework (§2.2).
 *
 * The simulator feeds one application's raw event deltas; software
 * (the dynamic partitioning framework, the SLO monitor) reads the
 * derived metrics of each completed window, such as MPKI over 100 ms
 * intervals (§6.2).
 */

#ifndef CAPART_PERF_PERF_COUNTERS_HH
#define CAPART_PERF_PERF_COUNTERS_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace capart
{

/** Derived metrics for one completed sampling window. */
struct PerfWindow
{
    Seconds start = 0.0;
    Seconds end = 0.0;
    Insts insts = 0;
    std::uint64_t llcAccesses = 0;
    std::uint64_t llcMisses = 0;
    double mpki = 0.0;
    double apki = 0.0;
};

/**
 * Interposition point on window delivery, used by the fault-injection
 * framework (src/fault) to model the telemetry failures commodity
 * monitoring suffers: dropped sampling deadlines, corrupted counter
 * reads, and stale values.
 */
class WindowFaultHook
{
  public:
    virtual ~WindowFaultHook() = default;

    /**
     * Called as window @p index of stream @p stream closes, before the
     * window is published. The hook may mutate @p w (corrupt or stale
     * counters) or return false to drop the window entirely.
     */
    virtual bool onWindowClose(std::uint64_t stream, std::uint64_t index,
                               PerfWindow &w) = 0;
};

/**
 * Samples one application's counters at a fixed simulated-time period
 * and produces completed @ref PerfWindow records, mirroring the 100 ms
 * monitoring loop of the paper's software framework. The period is
 * configurable because the simulator runs scaled-down applications.
 */
class PerfMonitor
{
  public:
    explicit PerfMonitor(Seconds window_length);

    /** Feed event deltas attributed to the monitored app at @p now. */
    void record(Seconds now, Insts insts, std::uint64_t llc_accesses,
                std::uint64_t llc_misses);

    /** Windows completed so far (close on the fly as time advances). */
    const std::vector<PerfWindow> &windows() const { return windows_; }

    /** Number of windows completed so far. */
    std::size_t windowCount() const { return windows_.size(); }

    /**
     * Install a (non-owned) fault hook consulted as windows close.
     * @p stream tags this monitor in the hook's callbacks (callers use
     * the monitored application's id).
     */
    void
    setFaultHook(WindowFaultHook *hook, std::uint64_t stream)
    {
        hook_ = hook;
        stream_ = stream;
    }

    /** Windows suppressed by the fault hook (dropped deadlines). */
    std::uint64_t droppedWindows() const { return dropped_; }

  private:
    void closeWindow(Seconds boundary);

    Seconds windowLength_;
    Seconds windowStart_ = 0.0;
    Insts insts_ = 0;
    std::uint64_t acc_ = 0;
    std::uint64_t miss_ = 0;
    std::vector<PerfWindow> windows_;
    WindowFaultHook *hook_ = nullptr;
    std::uint64_t stream_ = 0;
    std::uint64_t closed_ = 0;
    std::uint64_t dropped_ = 0;
};

} // namespace capart

#endif // CAPART_PERF_PERF_COUNTERS_HH
