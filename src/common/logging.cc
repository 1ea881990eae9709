#include "common/logging.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>

#include "common/json.hh"
#include "common/util.hh"

namespace capart
{

// ------------------------------------------------ structured JSONL log --

namespace
{

/**
 * The process-wide sink. Heap-allocated on first use and never
 * destroyed, so events from static destructors (atexit exporters,
 * panic paths) can still land.
 */
struct LogSink
{
    std::mutex mutex;
    std::ofstream file;
    bool open = false;
};

LogSink &
sink()
{
    static LogSink *s = new LogSink;
    return *s;
}

/** Lower-case level name, the `level` field of a line. */
const char *
logLevelName(LogLevel lvl)
{
    switch (lvl) {
      case LogLevel::Info:
        return "info";
      case LogLevel::Warn:
        return "warn";
      case LogLevel::Error:
        return "error";
    }
    return "info";
}

} // namespace

void
LogField::writeTo(std::ostream &os) const
{
    os << '"' << jsonEscape(key_) << "\":";
    switch (kind_) {
      case Kind::Num:
        jsonWriteNumber(os, num_);
        break;
      case Kind::Int:
        os << int_;
        break;
      case Kind::Str:
        os << '"' << jsonEscape(str_) << '"';
        break;
      case Kind::Bool:
        os << (int_ ? "true" : "false");
        break;
    }
}

void
setLogSink(const std::string &path)
{
    LogSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (s.file.is_open())
        s.file.close();
    s.open = false;
    if (path.empty())
        return;
    s.file.open(path, std::ios::app);
    if (!s.file) {
        std::fprintf(stderr, "capart: cannot open log sink %s\n",
                     path.c_str());
        return;
    }
    s.open = true;
}

bool
logEnabled()
{
    LogSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.open;
}

void
logEvent(LogLevel lvl, const char *event,
         std::initializer_list<LogField> fields)
{
    LogSink &s = sink();
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.open)
        return;
    // Build the full line before writing: one write + flush per event
    // keeps the stream line-atomic under concurrent emitters and means
    // a crash truncates at most the final line.
    std::ostringstream line;
    line << "{\"ts_ms\":";
    jsonWriteNumber(line, unixMillisNow());
    line << ",\"level\":\"" << logLevelName(lvl) << "\",\"event\":\""
         << jsonEscape(event) << '"';
    for (const LogField &f : fields) {
        line << ',';
        f.writeTo(line);
    }
    line << "}\n";
    s.file << line.str();
    s.file.flush();
}

// ------------------------------------------------------ stderr macros --

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  at %s:%d\n", msg.c_str(), file, line);
    logEvent(LogLevel::Error, "log.panic",
             {{"msg", msg}, {"file", file}, {"line", line}});
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  at %s:%d\n", msg.c_str(), file, line);
    logEvent(LogLevel::Error, "log.fatal",
             {{"msg", msg}, {"file", file}, {"line", line}});
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
    logEvent(LogLevel::Warn, "log.warn", {{"msg", msg}});
}

void
informImpl(const std::string &msg)
{
    std::fprintf(stderr, "info: %s\n", msg.c_str());
    logEvent(LogLevel::Info, "log.info", {{"msg", msg}});
}

} // namespace capart
