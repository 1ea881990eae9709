/**
 * @file
 * Host-time tracer exporting Chrome `trace_event` JSON.
 *
 * Events land in a preallocated per-thread ring buffer — the hot path
 * is an enabled check, a thread-local pointer chase, and a struct
 * write; no locks, no allocation after a thread's first event. When a
 * ring fills, the oldest events are overwritten (most-recent-window
 * semantics) and the drop is counted.
 *
 * The tracer answers one question: where did the host spend its time.
 * Every event is a complete span stamped with host microseconds since
 * tracer start, mostly RAII @ref TraceSpan scopes (sweep-runner
 * points, per-policy runs, whole-sim runs, N-app decisions); the
 * export is one Perfetto process, "host wall clock". What the
 * simulated controllers did, and when in simulated time, is the
 * point's journal (obs/timeseries.hh): each System run restarts its
 * clock at zero, so only a per-point record can say which run an
 * event belongs to. Open the file in ui.perfetto.dev or
 * chrome://tracing. Event/category names must be string literals (the
 * ring stores pointers, not copies).
 */

#ifndef CAPART_OBS_TRACE_HH
#define CAPART_OBS_TRACE_HH

#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <vector>

#include "obs/obs.hh"

namespace capart::obs
{

/** One numeric argument attached to a trace event. */
struct TraceArg
{
    const char *name; //!< string literal
    double value;
};

class Tracer
{
  public:
    /** @param ring_capacity events retained per recording thread. */
    explicit Tracer(std::size_t ring_capacity = 1 << 15);
    ~Tracer();

    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /**
     * Record a span ("X") covering [@p ts_us, @p ts_us + @p dur_us],
     * in host microseconds since tracer start (see wallUs()).
     */
    void complete(const char *name, const char *cat, double ts_us,
                  double dur_us, std::initializer_list<TraceArg> args = {});

    /** Host microseconds since this tracer was constructed. */
    double wallUs() const;

    /** Events currently retained across all rings. */
    std::uint64_t eventCount() const;

    /** Events overwritten because a ring filled. */
    std::uint64_t dropped() const;

    /** Forget all recorded events (rings stay allocated). */
    void clear();

    /**
     * Emit the retained events as Chrome trace JSON, globally sorted
     * by timestamp, preceded by the process-name metadata record. Not
     * safe while other threads record: callers export once recording
     * has stopped.
     */
    void writeChromeTrace(std::ostream &os) const;

  private:
    struct Event
    {
        const char *name;
        const char *cat;
        double ts;
        double dur;
        const char *argName[2];
        double argVal[2];
        std::uint32_t tid;
        std::uint8_t nargs;
    };

    struct Ring
    {
        Ring(std::size_t cap, std::uint32_t tid_) : buf(cap), tid(tid_) {}

        std::vector<Event> buf;
        std::size_t next = 0;      //!< slot the next event lands in
        std::uint64_t recorded = 0; //!< events ever recorded
        std::uint32_t tid;
    };

    Ring &ring();

    const std::size_t capacity_;
    const std::uint64_t id_; //!< distinguishes tracer instances in TLS
    const std::chrono::steady_clock::time_point epoch_;

    mutable std::mutex mutex_;
    std::vector<std::unique_ptr<Ring>> rings_;
};

/** The process-wide tracer every instrumentation seam records into. */
Tracer &tracer();

/**
 * RAII wall-clock span on the global tracer. Records one complete
 * event on destruction; free when observability is disabled at
 * construction time.
 */
class TraceSpan
{
  public:
    TraceSpan(const char *name, const char *cat,
              std::initializer_list<TraceArg> args = {});
    ~TraceSpan();

    TraceSpan(const TraceSpan &) = delete;
    TraceSpan &operator=(const TraceSpan &) = delete;

  private:
    const char *name_;
    const char *cat_;
    double startUs_;
    TraceArg args_[2];
    std::uint8_t nargs_;
    bool active_;
};

} // namespace capart::obs

#endif // CAPART_OBS_TRACE_HH
