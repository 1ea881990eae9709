/**
 * @file
 * The benchmark's own span recorder.
 *
 * The traced pass wraps every call it makes into a simulator layer in a
 * span: name, start, end, the span that caused it, and a few numeric
 * arguments. Spans stay in memory while the pass runs and are written
 * once, at the end, as a Chrome trace_event document (one pid per
 * workload; open it in ui.perfetto.dev). A span's self time is its
 * duration minus the part of its interval its children cover.
 */

#ifndef CAPART_BENCHMARK_SPANS_HH
#define CAPART_BENCHMARK_SPANS_HH

#include <chrono>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace capart::harness
{

using Clock = std::chrono::steady_clock;

/** Nanoseconds between two steady-clock readings. */
inline std::int64_t
nsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(b - a)
        .count();
}

class SpanRecorder
{
  public:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        /** Index of the enclosing span, -1 for a root. */
        int parent = -1;
        std::vector<std::pair<std::string, double>> args;

        std::int64_t durationNs() const { return nsBetween(start, end); }
    };

    SpanRecorder() : epoch_(Clock::now()) {}

    /** Open a span nested in the innermost open one; returns its id. */
    int open(std::string name);
    /** Close span @p id, which must be the innermost open span. */
    void close(int id);
    void arg(int id, std::string key, double value);

    const std::vector<Span> &spans() const { return spans_; }

    /** Duration of @p id minus the union of its children's intervals. */
    std::int64_t selfNs(int id) const;

    /** Summed duration of every span called @p name. */
    std::int64_t totalNs(const std::string &name) const;

    /**
     * Chrome trace_event JSON: one complete ("X") event per span on
     * process @p pid, named @p process_name, with each span's
     * arguments plus its self time (`self_us`).
     */
    void writeChromeTrace(std::ostream &os, int pid,
                          const std::string &process_name) const;

  private:
    Clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on a recorder. */
class ScopedSpan
{
  public:
    ScopedSpan(SpanRecorder &rec, std::string name)
        : rec_(rec), id_(rec.open(std::move(name)))
    {
    }
    ~ScopedSpan() { rec_.close(id_); }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    void
    arg(std::string key, double value)
    {
        rec_.arg(id_, std::move(key), value);
    }

  private:
    SpanRecorder &rec_;
    int id_;
};

} // namespace capart::harness

#endif // CAPART_BENCHMARK_SPANS_HH
