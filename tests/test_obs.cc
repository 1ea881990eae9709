/**
 * @file
 * Tests for the observability layer (src/obs) and its two contracts:
 *
 *  1. What it records is right: metrics count exactly (including under
 *     concurrent increments), the tracer
 *     keeps the most recent window when a ring wraps, and the Chrome
 *     trace export is well-formed JSON of one host-time process with
 *     monotonic timestamps and properly nested wall-clock spans.
 *  2. What it costs is nothing when off: the runtime-disabled path has
 *     negligible overhead and — the load-bearing property — enabling
 *     observability changes no experiment output bit.
 *
 * The trace assertions run against an in-process replica of
 * bench_fig13_dynamic (the same Consolidation spec with the Dynamic
 * policy), whose trace holds host spans only and whose journal holds
 * its remasks, plus a synthetically driven partitioner guaranteeing a
 * journaled phase change. Simulated-time events live only in the
 * journal: every System run restarts its clock at zero, so only a
 * per-point record can say which run an event belongs to.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/dynamic_partitioner.hh"
#include "exec/sweep_runner.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/system.hh"
#include "workload/catalog.hh"

namespace capart
{
namespace
{

// ------------------------------------------------ minimal JSON parser --

/**
 * Just enough JSON to validate the exporters: objects, arrays,
 * strings, numbers, booleans, null. Strict on structure (trailing
 * garbage fails), permissive on nothing.
 */
struct Json
{
    enum class Kind { Null, Bool, Num, Str, Arr, Obj };

    Kind kind = Kind::Null;
    bool boolean = false;
    double num = 0.0;
    std::string str;
    std::vector<Json> arr;
    std::map<std::string, Json> obj;

    bool has(const std::string &key) const { return obj.count(key) > 0; }

    const Json &
    at(const std::string &key) const
    {
        static const Json null;
        const auto it = obj.find(key);
        return it == obj.end() ? null : it->second;
    }
};

class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : s_(text) {}

    std::optional<Json>
    parse()
    {
        std::optional<Json> v = value();
        skipWs();
        if (!v || pos_ != s_.size())
            return std::nullopt;
        return v;
    }

  private:
    void
    skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    consume(char c)
    {
        skipWs();
        if (pos_ < s_.size() && s_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    std::optional<std::string>
    string()
    {
        skipWs();
        if (pos_ >= s_.size() || s_[pos_] != '"')
            return std::nullopt;
        ++pos_;
        std::string out;
        while (pos_ < s_.size() && s_[pos_] != '"') {
            char c = s_[pos_++];
            if (c == '\\') {
                if (pos_ >= s_.size())
                    return std::nullopt;
                c = s_[pos_++];
                // Only the escapes the exporters emit.
                if (c == 'n')
                    c = '\n';
                else if (c == 't')
                    c = '\t';
            }
            out += c;
        }
        if (pos_ >= s_.size())
            return std::nullopt;
        ++pos_; // closing quote
        return out;
    }

    std::optional<Json>
    value()
    {
        skipWs();
        if (pos_ >= s_.size())
            return std::nullopt;
        const char c = s_[pos_];
        Json v;
        if (c == '{') {
            ++pos_;
            v.kind = Json::Kind::Obj;
            skipWs();
            if (consume('}'))
                return v;
            while (true) {
                const auto key = string();
                if (!key || !consume(':'))
                    return std::nullopt;
                const auto val = value();
                if (!val)
                    return std::nullopt;
                v.obj.emplace(*key, *val);
                if (consume(','))
                    continue;
                if (consume('}'))
                    return v;
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++pos_;
            v.kind = Json::Kind::Arr;
            skipWs();
            if (consume(']'))
                return v;
            while (true) {
                const auto val = value();
                if (!val)
                    return std::nullopt;
                v.arr.push_back(*val);
                if (consume(','))
                    continue;
                if (consume(']'))
                    return v;
                return std::nullopt;
            }
        }
        if (c == '"') {
            const auto str = string();
            if (!str)
                return std::nullopt;
            v.kind = Json::Kind::Str;
            v.str = *str;
            return v;
        }
        if (s_.compare(pos_, 4, "true") == 0) {
            pos_ += 4;
            v.kind = Json::Kind::Bool;
            v.boolean = true;
            return v;
        }
        if (s_.compare(pos_, 5, "false") == 0) {
            pos_ += 5;
            v.kind = Json::Kind::Bool;
            return v;
        }
        if (s_.compare(pos_, 4, "null") == 0) {
            pos_ += 4;
            return v;
        }
        // number
        std::size_t end = pos_;
        while (end < s_.size() &&
               (std::isdigit(static_cast<unsigned char>(s_[end])) ||
                s_[end] == '-' || s_[end] == '+' || s_[end] == '.' ||
                s_[end] == 'e' || s_[end] == 'E')) {
            ++end;
        }
        if (end == pos_)
            return std::nullopt;
        v.kind = Json::Kind::Num;
        v.num = std::stod(s_.substr(pos_, end - pos_));
        pos_ = end;
        return v;
    }

    const std::string &s_;
    std::size_t pos_ = 0;
};

/** Parse or fail the test. */
Json
parseJsonOrFail(const std::string &text)
{
    const std::optional<Json> v = JsonParser(text).parse();
    EXPECT_TRUE(v.has_value()) << "invalid JSON:\n" << text.substr(0, 400);
    return v.value_or(Json{});
}

// ------------------------------------------------------- test helpers --

/** Enables recording for one test; restores "off" on scope exit. */
struct ObsEnabledGuard
{
    ObsEnabledGuard() { obs::setEnabled(true); }
    ~ObsEnabledGuard() { obs::setEnabled(false); }
};

/** The traceEvents array of an exported trace, parsed and validated. */
std::vector<Json>
exportedEvents(const obs::Tracer &t)
{
    std::ostringstream os;
    t.writeChromeTrace(os);
    const Json root = parseJsonOrFail(os.str());
    EXPECT_EQ(root.kind, Json::Kind::Obj);
    EXPECT_TRUE(root.has("traceEvents"));
    const Json &events = root.at("traceEvents");
    EXPECT_EQ(events.kind, Json::Kind::Arr);
    return events.arr;
}

/** Non-metadata events must be sorted by "ts" in file order. */
void
expectMonotonicTimestamps(const std::vector<Json> &events)
{
    double last = -std::numeric_limits<double>::infinity();
    for (const Json &e : events) {
        if (e.at("ph").str == "M")
            continue;
        ASSERT_TRUE(e.has("ts")) << "event without a timestamp";
        const double ts = e.at("ts").num;
        EXPECT_GE(ts, last) << "timestamps regress in file order";
        last = ts;
    }
}

/**
 * Wall-clock complete events on one thread must nest: RAII spans can
 * contain each other or be disjoint, never partially overlap.
 * Verified with an interval stack per tid.
 */
void
expectHostSpansNest(const std::vector<Json> &events)
{
    constexpr double kEps = 1e-6;
    std::map<double, std::vector<std::pair<double, double>>> stacks;
    for (const Json &e : events) {
        if (e.at("ph").str != "X")
            continue;
        const double tid = e.at("tid").num;
        const double start = e.at("ts").num;
        const double end = start + e.at("dur").num;
        ASSERT_GE(e.at("dur").num, 0.0);
        auto &stack = stacks[tid];
        while (!stack.empty() && stack.back().second <= start + kEps)
            stack.pop_back();
        if (!stack.empty()) {
            EXPECT_GE(start, stack.back().first - kEps)
                << "span starts before its enclosing span";
            EXPECT_LE(end, stack.back().second + kEps)
                << "span outlives its enclosing span: partial overlap";
        }
        stack.emplace_back(start, end);
    }
}

unsigned
countEventsNamed(const std::vector<Json> &events, const std::string &name)
{
    unsigned n = 0;
    for (const Json &e : events)
        n += e.at("name").str == name;
    return n;
}

/** A synthetic FG window with well-formed timestamps. */
PerfWindow
fgWindow(unsigned index, double mpki)
{
    PerfWindow w;
    w.start = static_cast<Seconds>(index);
    w.end = w.start + 1.0;
    w.insts = 1000000;
    w.llcAccesses = 2000;
    w.llcMisses = static_cast<std::uint64_t>(mpki * 1000);
    w.mpki = mpki;
    w.apki = 2.0;
    return w;
}

// ------------------------------------------------------------ metrics --

TEST(ObsMetrics, CounterBasics)
{
    obs::Counter c;
    EXPECT_EQ(c.value(), 0u);
    c.inc();
    c.inc(41);
    EXPECT_EQ(c.value(), 42u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
}

TEST(ObsMetrics, RegistryReturnsStableReferences)
{
    obs::MetricsRegistry reg;
    obs::Counter &a = reg.counter("x");
    obs::Counter &b = reg.counter("x");
    EXPECT_EQ(&a, &b) << "same name must be the same counter";
    a.inc(3);
    EXPECT_EQ(reg.counter("x").value(), 3u);
}

TEST(ObsMetrics, JsonExportParsesAndRoundTripsValues)
{
    obs::MetricsRegistry reg;
    reg.counter("sim.quanta").inc(1234);
    reg.counter("partitioner.remask_attempts").inc(7);

    std::ostringstream os;
    reg.writeJson(os);
    const Json root = parseJsonOrFail(os.str());

    // Only event counts, which add up across the runs of a sweep: no
    // last-writer-wins levels, and no host time (the tracer's).
    std::vector<std::string> sections;
    for (const auto &[name, value] : root.obj)
        sections.push_back(name);
    EXPECT_EQ(sections, (std::vector<std::string>{"counters"}));

    EXPECT_DOUBLE_EQ(root.at("counters").at("sim.quanta").num, 1234.0);
    EXPECT_DOUBLE_EQ(
        root.at("counters").at("partitioner.remask_attempts").num, 7.0);
}

TEST(ObsMetrics, ConcurrentIncrementsCountExactly)
{
    obs::MetricsRegistry reg;
    constexpr unsigned kThreads = 4;
    constexpr std::uint64_t kPerThread = 200000;
    std::vector<std::thread> workers;
    workers.reserve(kThreads);
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&reg] {
            // Registration from several threads must be safe too.
            obs::Counter &c = reg.counter("contended");
            for (std::uint64_t i = 0; i < kPerThread; ++i)
                c.inc();
        });
    }
    for (auto &w : workers)
        w.join();
    EXPECT_EQ(reg.counter("contended").value(), kThreads * kPerThread);
}

TEST(ObsMetrics, ResetZeroesValuesKeepsNames)
{
    obs::MetricsRegistry reg;
    reg.counter("n").inc(9);
    reg.reset();
    EXPECT_EQ(reg.counter("n").value(), 0u);
}

// ------------------------------------------------------------- tracer --

TEST(ObsTracer, RecordsNothingWhileDisabled)
{
    ASSERT_FALSE(obs::enabled()) << "tests must start with obs off";
    obs::Tracer t(16);
    t.complete("y", "test", 1.0, 2.0);
    { obs::TraceSpan span("z", "test"); }
    EXPECT_EQ(t.eventCount(), 0u);
}

TEST(ObsTracer, ExportIsValidChromeTraceJson)
{
    ObsEnabledGuard on;
    obs::Tracer t(64);
    t.complete("sweep.point", "sweep", 20.0, 5.0, {{"spec_hash", 42}});
    t.complete("napp.decide", "partition", 10.0, 1.0,
               {{"apps", 8}, {"ways", 20}});
    t.complete("sim.run", "sim", 5.0, 30.0);

    std::ostringstream os;
    t.writeChromeTrace(os);
    const Json root = parseJsonOrFail(os.str());
    EXPECT_EQ(root.at("displayTimeUnit").str, "ms");

    const std::vector<Json> &events = root.at("traceEvents").arr;
    ASSERT_EQ(events.size(), 4u); // 1 metadata + 3 recorded

    // One process, named by the one metadata record that leads.
    EXPECT_EQ(events[0].at("ph").str, "M");
    EXPECT_EQ(events[0].at("name").str, "process_name");
    EXPECT_EQ(events[0].at("args").at("name").str, "host wall clock");
    const double pid = events[0].at("pid").num;
    for (std::size_t i = 1; i < events.size(); ++i) {
        EXPECT_EQ(events[i].at("ph").str, "X");
        EXPECT_EQ(events[i].at("pid").num, pid);
        EXPECT_TRUE(events[i].has("dur"));
    }
    // Sorted by start: sim.run (5), napp.decide (10), sweep.point (20).
    EXPECT_EQ(events[1].at("name").str, "sim.run");
    EXPECT_DOUBLE_EQ(events[1].at("dur").num, 30.0);
    EXPECT_EQ(events[2].at("name").str, "napp.decide");
    EXPECT_DOUBLE_EQ(events[2].at("args").at("apps").num, 8.0);
    EXPECT_DOUBLE_EQ(events[2].at("args").at("ways").num, 20.0);
    EXPECT_DOUBLE_EQ(events[3].at("args").at("spec_hash").num, 42.0);
    expectMonotonicTimestamps(events);
}

TEST(ObsTracer, RingWrapKeepsMostRecentEvents)
{
    ObsEnabledGuard on;
    constexpr std::size_t kCap = 8;
    obs::Tracer t(kCap);
    for (unsigned i = 0; i < 30; ++i)
        t.complete("e", "test", static_cast<double>(i), 0.5);
    EXPECT_EQ(t.eventCount(), kCap);
    EXPECT_EQ(t.dropped(), 30u - kCap);

    const std::vector<Json> events = exportedEvents(t);
    double min_ts = std::numeric_limits<double>::infinity();
    unsigned recorded = 0;
    for (const Json &e : events) {
        if (e.at("ph").str == "M")
            continue;
        ++recorded;
        min_ts = std::min(min_ts, e.at("ts").num);
    }
    EXPECT_EQ(recorded, kCap);
    EXPECT_DOUBLE_EQ(min_ts, 30.0 - kCap)
        << "the oldest retained event must be the (N-cap)th";

    t.clear();
    EXPECT_EQ(t.eventCount(), 0u);
    EXPECT_EQ(t.dropped(), 0u);
}

TEST(ObsTracer, ExportFooterReportsDroppedAndRetainedCounts)
{
    ObsEnabledGuard on;
    const std::uint64_t drops_before =
        obs::metrics().counter("trace.dropped").value();

    constexpr std::size_t kCap = 4;
    obs::Tracer t(kCap);
    for (unsigned i = 0; i < 10; ++i)
        t.complete("e", "test", static_cast<double>(i), 0.5);

    std::ostringstream os;
    t.writeChromeTrace(os);
    const Json root = parseJsonOrFail(os.str());
    ASSERT_TRUE(root.has("metadata"))
        << "trace export must carry a metadata footer";
    EXPECT_DOUBLE_EQ(root.at("metadata").at("dropped_events").num, 6.0);
    // Retained counts recorded events only, not the process-name
    // metadata record the exporter prepends.
    EXPECT_DOUBLE_EQ(root.at("metadata").at("retained_events").num,
                     static_cast<double>(kCap));

    // The global drop counter moved by the same amount, so exporters
    // that only see metrics still learn the trace was lossy.
    EXPECT_EQ(obs::metrics().counter("trace.dropped").value(),
              drops_before + 6);
}

TEST(ObsTracer, FullExportReportsZeroDropped)
{
    ObsEnabledGuard on;
    obs::Tracer t(64);
    t.complete("only", "test", 1.0, 1.0);
    std::ostringstream os;
    t.writeChromeTrace(os);
    const Json root = parseJsonOrFail(os.str());
    EXPECT_DOUBLE_EQ(root.at("metadata").at("dropped_events").num, 0.0);
}

TEST(ObsTracer, SpansNestProperly)
{
    ObsEnabledGuard on;
    obs::tracer().clear();
    {
        obs::TraceSpan outer("outer", "test");
        {
            obs::TraceSpan inner1("inner1", "test", {{"k", 1}});
        }
        {
            obs::TraceSpan inner2("inner2", "test");
            obs::TraceSpan inner3("inner3", "test");
        }
    }
    const std::vector<Json> events = exportedEvents(obs::tracer());
    EXPECT_EQ(countEventsNamed(events, "outer"), 1u);
    EXPECT_EQ(countEventsNamed(events, "inner1"), 1u);
    expectMonotonicTimestamps(events);
    expectHostSpansNest(events);

    // inner1 must lie inside outer on the wall-clock track.
    double outer_start = 0, outer_end = 0, inner_start = 0, inner_end = 0;
    for (const Json &e : events) {
        if (e.at("name").str == "outer") {
            outer_start = e.at("ts").num;
            outer_end = outer_start + e.at("dur").num;
        } else if (e.at("name").str == "inner1") {
            inner_start = e.at("ts").num;
            inner_end = inner_start + e.at("dur").num;
        }
    }
    EXPECT_GE(inner_start, outer_start);
    EXPECT_LE(inner_end, outer_end);
    obs::tracer().clear();
}

// ----------------------------------------- fig13-style trace contents --

/** The decision records of a drained journal, in journal order. */
std::vector<obs::JournalEntry>
decisionsOf(const obs::AttributionBatch &batch)
{
    std::vector<obs::JournalEntry> out;
    for (const obs::JournalEntry &e : batch.journal) {
        if (e.kind == "decision")
            out.push_back(e);
    }
    return out;
}

TEST(ObsTrace, DynamicConsolidationTraceHasRemaskAndNestedSpans)
{
    ObsEnabledGuard on;
    obs::tracer().clear();
    obs::metrics().reset();
    obs::timeseries().clear();

    // The bench_fig13_dynamic workload, in-process and small: one
    // Consolidation point running the paper's dynamic policy. With one
    // job the point runs on this thread, so its journal is this
    // thread's scope.
    exec::SweepRunnerOptions ro;
    ro.jobs = 1;
    ro.baseSeed = 12345;
    exec::SweepRunner runner(ro);
    const std::vector<exec::SweepResult> results = runner.run(
        {exec::consolidationSpec("429.mcf", "dedup",
                                 exec::policyBit(Policy::Dynamic), 0.06,
                                 15e-6)});
    ASSERT_EQ(results.size(), 1u);
    ASSERT_TRUE(results[0].policy[static_cast<int>(Policy::Dynamic)]
                    .present);

    // The trace is host time only: complete spans of one process.
    const std::vector<Json> events = exportedEvents(obs::tracer());
    expectMonotonicTimestamps(events);
    expectHostSpansNest(events);
    unsigned metadata = 0;
    for (const Json &e : events) {
        if (e.at("ph").str == "M") {
            ++metadata;
            continue;
        }
        EXPECT_EQ(e.at("ph").str, "X") << e.at("name").str;
        EXPECT_EQ(e.at("pid").num, events.front().at("pid").num);
    }
    EXPECT_EQ(metadata, 1u) << "one process-name record";
    EXPECT_GE(countEventsNamed(events, "sweep.point"), 1u);
    EXPECT_GE(countEventsNamed(events, "dynamic"), 1u)
        << "per-policy span missing";
    EXPECT_GE(countEventsNamed(events, "sim.run"), 1u);

    // The remasks are in the point's journal: within one run (its
    // simulated clock never goes back; the next run restarts at zero),
    // each change of the installed foreground ways between decisions
    // is one applied remask.
    const std::vector<obs::JournalEntry> decisions =
        decisionsOf(obs::timeseries().drainScope());
    ASSERT_FALSE(decisions.empty());
    unsigned remasks = 0;
    for (std::size_t i = 1; i < decisions.size(); ++i) {
        const obs::JournalEntry &prev = decisions[i - 1];
        const double ways = decisions[i].field("installed_fg_ways");
        EXPECT_GE(ways, 1.0);
        EXPECT_LE(ways, 12.0);
        if (decisions[i].tUs < prev.tUs ||
            ways == prev.field("installed_fg_ways"))
            continue;
        ++remasks;
        EXPECT_EQ(decisions[i].field("applied"), 1.0)
            << "a changed allocation is an installed one";
    }
    EXPECT_GE(remasks, 1u) << "a dynamic run must remask at least once";

    EXPECT_GE(obs::metrics()
                  .counter("partitioner.remask_attempts")
                  .value(),
              remasks);
    EXPECT_GE(obs::metrics().counter("sim.quanta").value(), 1u);

    obs::tracer().clear();
    obs::metrics().reset();
}

TEST(ObsTrace, PhaseChangeEventsAppearOnTheSimTrack)
{
    ObsEnabledGuard on;
    obs::tracer().clear();
    obs::metrics().reset();
    obs::timeseries().clear();

    // Drive the partitioner with synthetic windows: a stable level,
    // then a sustained jump — a guaranteed phase change (a lone spike
    // would be quarantined, so send several samples at the new level).
    SystemConfig scfg;
    System sys(scfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);
    DynamicPartitioner ctrl(fg, {bg});

    unsigned t = 0;
    for (int i = 0; i < 6; ++i)
        ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    for (int i = 0; i < 6; ++i)
        ctrl.onWindow(sys, fg, fgWindow(t++, 100.0));

    // The simulated-time track is the journal: the phase change is its
    // phase_start_max decision.
    unsigned starts = 0;
    for (const obs::JournalEntry &e :
         decisionsOf(obs::timeseries().drainScope())) {
        if (e.rule != "phase_start_max")
            continue;
        ++starts;
        // Smoothed MPKI at detection time: above the old level, at or
        // below the new one.
        EXPECT_GT(e.field("smoothed_mpki"), 10.0);
        EXPECT_LE(e.field("smoothed_mpki"), 100.0);
    }
    EXPECT_GE(starts, 1u);
    EXPECT_GE(obs::metrics().counter("phase_detector.changes").value(),
              1u);
    EXPECT_EQ(obs::metrics().counter("partitioner.phase_changes").value(),
              starts);
    EXPECT_EQ(obs::tracer().eventCount(), 0u)
        << "the controller records no host spans";

    obs::metrics().reset();
}

// ------------------------------------------------------- cost contract --

/** Field-by-field exact comparison; doubles must match to the bit. */
void
expectResultsIdentical(const exec::SweepResult &a,
                       const exec::SweepResult &b)
{
    EXPECT_EQ(a.time, b.time);
    EXPECT_EQ(a.socketEnergy, b.socketEnergy);
    EXPECT_EQ(a.wallEnergy, b.wallEnergy);
    EXPECT_EQ(a.mpki, b.mpki);
    EXPECT_EQ(a.apki, b.apki);
    EXPECT_EQ(a.ipc, b.ipc);
    EXPECT_EQ(a.bgThroughput, b.bgThroughput);
    EXPECT_EQ(a.timedOut, b.timedOut);
    for (int p = 0; p < 4; ++p) {
        EXPECT_EQ(a.policy[p].present, b.policy[p].present);
        EXPECT_EQ(a.policy[p].fgSlowdown, b.policy[p].fgSlowdown);
        EXPECT_EQ(a.policy[p].bgThroughput, b.policy[p].bgThroughput);
        EXPECT_EQ(a.policy[p].energyVsSequential,
                  b.policy[p].energyVsSequential);
        EXPECT_EQ(a.policy[p].wallEnergyVsSequential,
                  b.policy[p].wallEnergyVsSequential);
        EXPECT_EQ(a.policy[p].weightedSpeedup,
                  b.policy[p].weightedSpeedup);
        EXPECT_EQ(a.policy[p].fgWays, b.policy[p].fgWays);
    }
}

TEST(ObsZeroCost, EnablingObservabilityChangesNoOutputBit)
{
    // The fig13-style dynamic run — the most instrumented path in the
    // codebase (partitioner, phase detector, rctl, sim) — must produce
    // bit-identical results with recording off and on. Recording never
    // feeds back into simulation state; this is the test that keeps it
    // that way.
    const exec::ExperimentSpec spec = exec::consolidationSpec(
        "429.mcf", "dedup", exec::policyBit(Policy::Dynamic), 0.03,
        15e-6);

    ASSERT_FALSE(obs::enabled());
    const exec::SweepResult off1 = exec::runSpec(spec, 12345);
    const exec::SweepResult off2 = exec::runSpec(spec, 12345);
    expectResultsIdentical(off1, off2); // determinism baseline

    exec::SweepResult on_result;
    {
        ObsEnabledGuard on;
        obs::tracer().clear();
        on_result = exec::runSpec(spec, 12345);
        obs::tracer().clear();
        obs::metrics().reset();
    }
    expectResultsIdentical(off1, on_result);
}

TEST(ObsZeroCost, DisabledSeamIsNearFree)
{
    // A loop with a disabled seam vs the bare loop. Typical overhead
    // is well under 2%; the bound here is deliberately loose (CI
    // machines are noisy) — this guards against the seam accidentally
    // becoming a lock or an allocation, not against a mispredicted
    // branch. Min-of-N filters scheduler noise.
    ASSERT_FALSE(obs::enabled());
    constexpr std::uint64_t kIters = 2000000;
    constexpr int kRuns = 7;

    volatile std::uint64_t sink = 0;
    const auto time_loop = [&](bool with_seam) {
        double best = std::numeric_limits<double>::infinity();
        for (int r = 0; r < kRuns; ++r) {
            const auto t0 = std::chrono::steady_clock::now();
            std::uint64_t acc = 0;
            for (std::uint64_t i = 0; i < kIters; ++i) {
                acc += i ^ (acc >> 3);
                if (with_seam && obs::enabled()) {
                    static obs::Counter &c =
                        obs::metrics().counter("overhead.test");
                    c.inc();
                }
            }
            sink = acc;
            const auto t1 = std::chrono::steady_clock::now();
            best = std::min(
                best,
                std::chrono::duration<double>(t1 - t0).count());
        }
        return best;
    };

    const double bare = time_loop(false);
    const double seamed = time_loop(true);
    EXPECT_LT(seamed, bare * 1.5 + 1e-3)
        << "disabled observability seam is not near-free: bare=" << bare
        << "s seamed=" << seamed << "s";
}

TEST(ObsZeroCost, EnabledCounterHotPathIsCheap)
{
    ObsEnabledGuard on;
    obs::Counter &c = obs::metrics().counter("hotpath.test");
    constexpr std::uint64_t kIters = 1000000;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < kIters; ++i)
        c.inc();
    const auto t1 = std::chrono::steady_clock::now();
    const double ns_per_inc =
        std::chrono::duration<double, std::nano>(t1 - t0).count() /
        static_cast<double>(kIters);
    EXPECT_LT(ns_per_inc, 200.0)
        << "a relaxed fetch_add should be single-digit ns";
    obs::metrics().reset();
}

} // namespace
} // namespace capart
