/**
 * @file
 * Error and status reporting, in the spirit of gem5's base/logging.hh.
 *
 * panic()  — an internal invariant was violated; this is a capart bug.
 *            Aborts so a debugger or core dump can capture state.
 * fatal()  — the user supplied an impossible configuration; exits cleanly
 *            with a nonzero status.
 * warn() / inform() — non-fatal status messages on stderr.
 *
 * Beyond the stderr macros, the module owns the process-wide
 * *structured* log: a JSONL sink (one JSON object per line, flushed
 * per line) that typed events — the dynamic partitioner's health
 * transitions and a copy of every stderr diagnostic — are routed into
 * so one machine-readable stream tells the story of a run. The sink is
 * off until setLogSink() names a file (the benches open
 * `<obs-dir>/log.jsonl`); with no sink, logEvent() is a cheap early
 * return, so instrumentation sites need no gating of their own. Every
 * event is written; its level is a field of the line.
 */

#ifndef CAPART_COMMON_LOGGING_HH
#define CAPART_COMMON_LOGGING_HH

#include <cstdint>
#include <initializer_list>
#include <sstream>
#include <string>

namespace capart
{

/** @cond INTERNAL implementation hooks for the macros below. */
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
/** @endcond */

// ------------------------------------------------ structured JSONL log --

/** Severity of a structured log event, written as its `level`. */
enum class LogLevel
{
    Info,
    Warn,
    Error
};

/** One key/value attached to a structured event. Keys are literals. */
class LogField
{
  public:
    LogField(const char *key, double v)
        : key_(key), kind_(Kind::Num), num_(v)
    {
    }
    // Small integers ride the double path (exact below 2^53 and
    // printed without a fraction); only uint64 needs the exact lane.
    LogField(const char *key, int v)
        : LogField(key, static_cast<double>(v))
    {
    }
    LogField(const char *key, unsigned v)
        : LogField(key, static_cast<double>(v))
    {
    }
    LogField(const char *key, std::uint64_t v)
        : key_(key), kind_(Kind::Int), int_(v)
    {
    }
    LogField(const char *key, const char *v)
        : key_(key), kind_(Kind::Str), str_(v)
    {
    }
    LogField(const char *key, const std::string &v)
        : key_(key), kind_(Kind::Str), str_(v)
    {
    }
    LogField(const char *key, bool v)
        : key_(key), kind_(Kind::Bool), int_(v ? 1 : 0)
    {
    }

    /** Emit `"key":value` (no surrounding braces). */
    void writeTo(std::ostream &os) const;

  private:
    enum class Kind { Num, Int, Str, Bool };

    const char *key_;
    Kind kind_;
    std::uint64_t int_ = 0;
    double num_ = 0.0;
    std::string str_;
};

/**
 * Open (append) the structured sink at @p path; "" closes it.
 * Replaces any previous sink.
 */
void setLogSink(const std::string &path);

/** True when a sink is open. */
bool logEnabled();

/**
 * Append one structured event line:
 * `{"ts_ms":<unix ms>,"level":"...","event":"...",<fields...>}`.
 * No-op (one branch) when no sink is open.
 * The line is built whole and flushed in one write, so a crash can
 * truncate at most the final line — loaders skip unparsable tails.
 */
void logEvent(LogLevel lvl, const char *event,
              std::initializer_list<LogField> fields = {});

} // namespace capart

/** Abort with a message; use for violated internal invariants. */
#define capart_panic(msg)                                                    \
    do {                                                                     \
        std::ostringstream capart_oss_;                                     \
        capart_oss_ << msg;                                                 \
        ::capart::panicImpl(__FILE__, __LINE__, capart_oss_.str());         \
    } while (0)

/** Exit with a message; use for invalid user configuration. */
#define capart_fatal(msg)                                                    \
    do {                                                                     \
        std::ostringstream capart_oss_;                                     \
        capart_oss_ << msg;                                                 \
        ::capart::fatalImpl(__FILE__, __LINE__, capart_oss_.str());         \
    } while (0)

/** Print a warning to stderr and continue. */
#define capart_warn(msg)                                                     \
    do {                                                                     \
        std::ostringstream capart_oss_;                                     \
        capart_oss_ << msg;                                                 \
        ::capart::warnImpl(capart_oss_.str());                              \
    } while (0)

/** Print an informational message to stderr and continue. */
#define capart_inform(msg)                                                   \
    do {                                                                     \
        std::ostringstream capart_oss_;                                     \
        capart_oss_ << msg;                                                 \
        ::capart::informImpl(capart_oss_.str());                            \
    } while (0)

/**
 * Check an internal invariant; panics with the stringified condition on
 * failure. Always enabled (the simulator is cheap relative to debugging).
 */
#define capart_assert(cond)                                                  \
    do {                                                                     \
        if (!(cond))                                                         \
            capart_panic("assertion failed: " #cond);                        \
    } while (0)

#endif // CAPART_COMMON_LOGGING_HH
