/**
 * @file
 * Structured health events emitted by the hardened control plane.
 *
 * Production deployments of the paper's dynamic policy need the
 * controller's degradation decisions to be observable: every rejected
 * sample, failed remask, watchdog trip, and recovery is recorded as a
 * typed event that operators (and tests) can audit after the fact.
 */

#ifndef CAPART_CORE_HEALTH_HH
#define CAPART_CORE_HEALTH_HH

#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace capart
{

/** What the controller observed or decided. */
enum class HealthEventKind
{
    SampleRejected,  //!< telemetry window failed validity checks
    WindowGap,       //!< one or more monitoring windows never arrived
    RemaskFailed,    //!< a mask application failed (will be retried)
    RemaskRecovered, //!< a retried mask application finally succeeded
    FallbackEntered, //!< watchdog tripped; safe static partition installed
    DynamicResumed   //!< signals stabilized; dynamic control re-engaged
};

/** Human-readable event name (for logs and tables). */
inline const char *
healthEventName(HealthEventKind k)
{
    switch (k) {
      case HealthEventKind::SampleRejected:
        return "sample-rejected";
      case HealthEventKind::WindowGap:
        return "window-gap";
      case HealthEventKind::RemaskFailed:
        return "remask-failed";
      case HealthEventKind::RemaskRecovered:
        return "remask-recovered";
      case HealthEventKind::FallbackEntered:
        return "fallback-entered";
      case HealthEventKind::DynamicResumed:
        return "dynamic-resumed";
    }
    capart_panic("unknown health event kind");
}

/** Operating mode of a hardened partition controller. */
enum class ControlMode
{
    Dynamic, //!< Algorithm 6.2 actively repartitioning
    Fallback //!< safe fair static partition (watchdog engaged)
};

/** One structured health event. */
struct HealthEvent
{
    Seconds time = 0.0;
    HealthEventKind kind = HealthEventKind::SampleRejected;
    /** Foreground allocation in effect after the event. */
    unsigned fgWays = 0;
    /** Consecutive-failure count (or gap length) behind the event. */
    unsigned count = 0;
};

/** Count events of one kind in a health log. */
inline std::uint64_t
countHealthEvents(const std::vector<HealthEvent> &log, HealthEventKind k)
{
    std::uint64_t n = 0;
    for (const HealthEvent &e : log)
        n += (e.kind == k);
    return n;
}

} // namespace capart

#endif // CAPART_CORE_HEALTH_HH
