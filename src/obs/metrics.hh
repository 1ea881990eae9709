/**
 * @file
 * MetricsRegistry: named counters with lock-free hot-path updates and
 * JSON export.
 *
 * The registry is process-wide, and a sweep runs many simulations in
 * it, so it holds only values that add up across runs: event counts.
 * A per-run level (a way allocation, a burn rate) is a field of that
 * run's journal record (obs/timeseries.hh), and host time is the
 * tracer's (obs/trace.hh).
 *
 * Registration (looking a metric up by name) takes a mutex; the
 * returned reference is stable for the registry's lifetime, so hot
 * paths cache it once and then update with relaxed atomics only:
 *
 *     if (obs::enabled()) {
 *         static obs::Counter &quanta =
 *             obs::metrics().counter("sim.quanta");
 *         quanta.inc();
 *     }
 *
 * The function-local static keeps the lookup off the hot path *and*
 * defers it until observability is actually enabled.
 */

#ifndef CAPART_OBS_METRICS_HH
#define CAPART_OBS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"

namespace capart::obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * Owns every named metric. Thread-safe; lookups lock, updates through
 * the returned references do not. Export order is deterministic
 * (lexicographic by name) so repeated dumps diff cleanly.
 */
class MetricsRegistry
{
  public:
    /** Find or create; the reference stays valid for the registry's life. */
    Counter &counter(const std::string &name);

    /** {"counters": {"name": value, ...}}. */
    void writeJson(std::ostream &os) const;

    /** Zero every metric's value; registered names persist. */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
};

/** The process-wide registry every instrumentation seam writes to. */
MetricsRegistry &metrics();

} // namespace capart::obs

#endif // CAPART_OBS_METRICS_HH
