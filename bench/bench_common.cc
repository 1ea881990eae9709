#include "bench_common.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <thread>

#include <pthread.h>

#include "common/logging.hh"
#include "common/util.hh"
#include "exec/result_cache.hh"
#include "obs/metrics.hh"
#include "obs/run_ledger.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "workload/catalog.hh"

namespace capart::bench
{

namespace
{
constexpr const char *kDefaultCacheDir = ".capart-cache";

/**
 * The --obs-dir of this invocation, exported from an exit hook so
 * every bench binary gets it without touching its main(). Failures go
 * to stderr: the figure on stdout must never change shape because a
 * side file was unwritable.
 */
std::string gObsDir; // NOLINT(cert-err58-cpp)

/** Ledger state of this invocation (one run id across all records). */
std::unique_ptr<obs::RunLedger> gLedger;     // NOLINT(cert-err58-cpp)
std::string gBenchName;                      // NOLINT(cert-err58-cpp)
std::string gRunId;                          // NOLINT(cert-err58-cpp)
std::uint64_t gSeed = 0;
std::chrono::steady_clock::time_point gWallStart;

/** Signal that ended the run (0 = none), set by the signal watcher. */
std::atomic<int> gStopSignal{0};

/**
 * Arm SIGTERM/SIGINT handling, once per process: block both signals
 * process-wide (worker threads created later inherit the mask) and
 * consume them on a dedicated watcher thread via sigwait, so shutdown
 * runs in normal thread context — no async-signal-safety constraints.
 * The first signal exits through std::quick_exit on a fresh thread:
 * the at_quick_exit exporter flushes the ledger and the metrics, and
 * no static destructor runs, so sweep workers still computing a point
 * keep appending to live objects until the process ends. Everything
 * they append (ledger, result cache, log) is flushed line by line, so
 * a resumed run loses at most the points in flight. A second signal
 * aborts at once. parseArgs calls this last, once the globals the
 * exporter reads are set: the watcher thread's creation is what
 * orders those writes before its reads.
 */
void
installSignalHandlers()
{
    static bool installed = false;
    if (installed)
        return;
    installed = true;
    sigset_t set;
    sigemptyset(&set);
    sigaddset(&set, SIGINT);
    sigaddset(&set, SIGTERM);
    pthread_sigmask(SIG_BLOCK, &set, nullptr);
    std::thread([set]() mutable {
        for (;;) {
            int sig = 0;
            if (sigwait(&set, &sig) != 0)
                continue;
            if (gStopSignal != 0)
                std::_Exit(128 + sig); // second signal
            gStopSignal = sig;
            // Exit from another thread, so this one stays free to
            // catch a second signal while the exporters run.
            std::thread([sig] { std::quick_exit(128 + sig); }).detach();
        }
    }).detach();
}

/** argv[0] basename with any "bench_" prefix stripped. */
std::string
benchNameFromArgv0(const char *argv0)
{
    std::string name =
        std::filesystem::path(argv0 ? argv0 : "bench").filename().string();
    if (name.rfind("bench_", 0) == 0)
        name = name.substr(6);
    return name.empty() ? "bench" : name;
}

void
exportObsFiles()
{
    const int stop = gStopSignal;
    if (gLedger) {
        obs::RunRecord rec;
        rec.bench = gBenchName;
        rec.run = gRunId;
        rec.seed = gSeed;
        rec.tsMs = unixMillisNow();
        if (stop != 0) {
            // The run is partial: say so before the closing record, so
            // bench_report never shows it as complete.
            obs::RunRecord cut = rec;
            cut.kind = "run_interrupted";
            cut.rule = stop == SIGINT ? "SIGINT" : "SIGTERM";
            gLedger->append(cut);
        }
        // One `bench` record closes the invocation with its total wall
        // time; the counters go to metrics.json under --obs-dir.
        rec.kind = "bench";
        rec.wallMs = std::chrono::duration<double, std::milli>(
                         std::chrono::steady_clock::now() - gWallStart)
                         .count();
        gLedger->append(rec);
    }
    if (gObsDir.empty())
        return;
    // metrics.json holds only atomics, so it is written even while
    // threads still record. The trace rings and the attribution scopes
    // are plain memory that sweep workers (or a bench's main thread)
    // may still be writing after a signal, so trace.json and the
    // bench's own side file are written only at a clean exit.
    std::ofstream metrics_out(gObsDir + "/metrics.json");
    if (!metrics_out) {
        std::fprintf(stderr, "capart: cannot write to %s\n",
                     gObsDir.c_str());
        return;
    }
    obs::metrics().writeJson(metrics_out);
    if (stop != 0)
        return;
    std::ofstream trace_out(gObsDir + "/trace.json");
    if (!trace_out) {
        std::fprintf(stderr, "capart: cannot write to %s\n",
                     gObsDir.c_str());
        return;
    }
    obs::tracer().writeChromeTrace(trace_out);
    // Sweep points wrote their attribution as they finished; what a
    // bench driving System directly (Fig. 12) recorded becomes one
    // more side file.
    obs::AttributionBatch rest = obs::timeseries().drainAll();
    if (rest.samples.empty() && rest.journal.empty())
        return;
    rest.label = gBenchName;
    rest.attrFile = gObsDir + "/attr/" + gBenchName + "-main.json";
    std::ofstream out(rest.attrFile);
    if (out)
        obs::writeAttributionJson(out, rest);
    else
        std::fprintf(stderr, "capart: cannot write %s\n",
                     rest.attrFile.c_str());
}

/** Register exportObsFiles to run at exit, once per process. */
void
registerExitExport()
{
    static bool registered = false;
    if (registered)
        return;
    registered = true;
    // Touch the globals before registering the handler: function
    // statics are destroyed in reverse construction order, so
    // constructing them first guarantees they outlive the atexit
    // exporter, which drains timeseries() too.
    obs::metrics();
    obs::tracer();
    obs::timeseries();
    std::atexit(exportObsFiles);
    std::at_quick_exit(exportObsFiles);
}

[[noreturn]] void
usage(const char *argv0, double default_scale, const char *description,
      int status)
{
    std::printf("%s\n\nusage: %s [--scale=F] [--csv] [--quick] "
                "[--seed=N] [--jobs=N] [--resume] "
                "[--cache-dir=D] [--ledger=F] [--obs-dir=D]\n"
                "  --scale=F    app instruction-count scale "
                "(default %.3g)\n"
                "  --csv        machine-readable output\n"
                "  --quick      cheaper settings for smoke runs\n"
                "  --jobs=N     parallel sweep workers "
                "(0 = all host cores);\n"
                "               output is bit-identical for "
                "every N\n"
                "  --resume     memoize finished sweep points in "
                "%s/sweep.cache\n"
                "               and skip them on re-runs\n"
                "  --cache-dir=D  --resume with the cache in "
                "D/sweep.cache\n"
                "  --ledger=F   append one JSONL run-ledger "
                "record per sweep point\n"
                "               plus a closing bench record to F "
                "(see bench_report)\n"
                "  --obs-dir=D  record observability and write it "
                "under D: metrics.json,\n"
                "               trace.json (Perfetto), log.jsonl, "
                "attr/ (per-point\n"
                "               samples and decisions; see "
                "bench_dashboard)\n"
                "  --obs-sample-period=N  with --obs-dir, snapshot "
                "per-owner attribution\n"
                "               (LLC ways, stalls, energy, DRAM "
                "channels) every N quanta\n",
                description, argv0, default_scale, kDefaultCacheDir);
    std::exit(status);
}
} // namespace

BenchOptions
parseArgs(int argc, char **argv, double default_scale,
          const char *description)
{
    BenchOptions opts;
    opts.scale = default_scale;
    bool sample_period_set = false;
    gBenchName = benchNameFromArgv0(argv[0]);
    gWallStart = std::chrono::steady_clock::now();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--scale=", 0) == 0) {
            opts.scale = std::atof(arg.c_str() + 8);
        } else if (arg == "--csv") {
            opts.csv = true;
        } else if (arg == "--quick") {
            opts.quick = true;
            opts.scale = std::min(opts.scale, default_scale * 0.3);
        } else if (arg.rfind("--seed=", 0) == 0) {
            opts.seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
        } else if (arg.rfind("--jobs=", 0) == 0) {
            opts.jobs =
                static_cast<unsigned>(std::strtoul(arg.c_str() + 7,
                                                   nullptr, 10));
            if (opts.jobs == 0)
                opts.jobs = std::thread::hardware_concurrency();
        } else if (arg == "--resume") {
            opts.resume = true;
        } else if (arg.rfind("--cache-dir=", 0) == 0) {
            opts.cacheDir = arg.substr(12);
            opts.resume = true;
        } else if (arg.rfind("--obs-dir=", 0) == 0) {
            opts.obsDir = arg.substr(10);
        } else if (arg.rfind("--ledger=", 0) == 0) {
            opts.ledgerOut = arg.substr(9);
        } else if (arg.rfind("--obs-sample-period=", 0) == 0) {
            opts.obsSamplePeriod =
                std::strtoull(arg.c_str() + 20, nullptr, 10);
            sample_period_set = true;
        } else {
            usage(argv[0], default_scale, description,
                  arg == "--help" ? 0 : 1);
        }
    }
    // Samples have nowhere to go without --obs-dir.
    if (sample_period_set && opts.obsDir.empty())
        usage(argv[0], default_scale, description, 1);
    if (opts.scale <= 0.0) {
        std::fprintf(stderr, "invalid --scale\n");
        std::exit(1);
    }
    if (opts.cacheDir.empty())
        opts.cacheDir = kDefaultCacheDir;
    if (!opts.obsDir.empty()) {
        // --obs-dir is the one switch that arms recording; --ledger
        // only shares its exit hook.
        std::filesystem::create_directories(opts.obsDir + "/attr");
        setLogSink(opts.obsDir + "/log.jsonl");
        gObsDir = opts.obsDir;
        obs::timeseries().setPeriod(opts.obsSamplePeriod);
        obs::setEnabled(true);
        registerExitExport();
    }
    if (!opts.ledgerOut.empty()) {
        // Built after the loop so the id reflects the final --seed no
        // matter the flag order.
        gSeed = opts.seed;
        gRunId = gBenchName + "-" + std::to_string(opts.seed) + "-" +
                 std::to_string(static_cast<std::uint64_t>(
                     unixMillisNow()));
        gLedger = std::make_unique<obs::RunLedger>(opts.ledgerOut);
        registerExitExport();
    }
    installSignalHandlers();
    return opts;
}

exec::SweepRunner
makeRunner(const BenchOptions &opts)
{
    exec::SweepRunnerOptions ro;
    ro.jobs = opts.jobs;
    ro.baseSeed = opts.seed;
    if (opts.resume) {
        std::filesystem::create_directories(opts.cacheDir);
        ro.cachePath = opts.cacheDir + "/sweep.cache";
        exec::ResultCache::initializeFile(ro.cachePath);
    }
    ro.progress = [](std::size_t done, std::size_t total) {
        // Stderr only: stdout (the table/CSV) stays byte-identical
        // regardless of completion order.
        std::fprintf(stderr, "\r%zu/%zu sweep points done", done, total);
        if (done == total)
            std::fputc('\n', stderr);
    };
    ro.benchName = gBenchName;
    if (gLedger) {
        ro.ledger = gLedger.get();
        ro.runId = gRunId;
    }
    if (!opts.obsDir.empty())
        ro.attrDir = opts.obsDir + "/attr";
    return exec::SweepRunner(ro);
}

std::vector<double>
takeTimes(const std::vector<exec::SweepResult> &res, std::size_t &next,
          std::size_t n)
{
    std::vector<double> t;
    for (; n > 0; --n)
        t.push_back(res.at(next++).time);
    return t;
}

void
emit(const BenchOptions &opts, const std::string &title,
     const Table &table)
{
    if (opts.csv) {
        std::cout << "# " << title << "\n";
        table.printCsv(std::cout);
    } else {
        std::cout << "\n== " << title << " ==\n";
        table.print(std::cout);
    }
    std::cout.flush();
}

void
addThreadSweep(std::vector<exec::ExperimentSpec> &specs,
               const std::string &app, double scale)
{
    for (unsigned n = 1; n <= 8; ++n)
        specs.push_back(exec::soloSpec(app, n, 12, scale));
}

void
addWaySweep(std::vector<exec::ExperimentSpec> &specs,
            const std::string &app, double scale, unsigned threads)
{
    for (unsigned w = 1; w <= 12; ++w)
        specs.push_back(exec::soloSpec(app, threads, w, scale));
}

void
addPrefetchSweep(std::vector<exec::ExperimentSpec> &specs,
                 const std::string &app, double scale)
{
    specs.push_back(exec::soloSpec(app, 4, 12, scale, /*prefetch_all=*/true));
    specs.push_back(
        exec::soloSpec(app, 4, 12, scale, /*prefetch_all=*/false));
}

void
addHogSweep(std::vector<exec::ExperimentSpec> &specs,
            const std::string &app, double scale)
{
    specs.push_back(exec::pairSpec(app, "stream_uncached", scale));
    specs.push_back(exec::soloSpec(app, 4, 12, scale));
}

ScalClass
classifyScalability(const std::vector<double> &times)
{
    // Table 1's buckets, applied to the measured speedup curve:
    // low      — peak speedup below 1.6x;
    // saturated— meaningful speedup that stops growing by 8 threads;
    // high     — keeps growing to 8 threads with solid overall gain.
    const double peak_speedup = times.front() / times.back();
    double best = 0.0;
    for (const double t : times)
        best = std::max(best, times.front() / t);
    const double tail_growth =
        times[5] / times[7]; // 6 -> 8 thread improvement
    if (best < 1.6)
        return ScalClass::Low;
    if (tail_growth > 1.06 && peak_speedup >= 2.8)
        return ScalClass::High;
    return ScalClass::Saturated;
}

UtilClass
classifyUtility(const std::vector<double> &times)
{
    // Table 2's buckets from the 1..12-way curve. The paper ignores
    // the pathological 0.5 MB direct-mapped point (§3.2); on our
    // platform tiny allocations additionally pay associativity and
    // inclusion-victim costs, so classification starts at 3 ways:
    // low      — ways beyond 3 change little;
    // high     — still improving in the top third of the cache;
    // saturated— improves, then flattens.
    const double t12 = times[11];
    const double gain_3_to_12 = times[2] / t12;
    const double gain_10_to_12 = times[9] / t12;
    if (gain_3_to_12 < 1.05)
        return UtilClass::Low;
    if (gain_10_to_12 > 1.02)
        return UtilClass::High;
    return UtilClass::Saturated;
}

std::vector<exec::ExperimentSpec>
fig09Specs(double scale)
{
    const auto reps = representatives();
    std::vector<exec::ExperimentSpec> specs;
    for (const AppParams &fg : reps)
        for (const AppParams &bg : reps)
            specs.push_back(exec::consolidationSpec(
                fg.name, bg.name,
                exec::policyBit(Policy::Shared) |
                    exec::policyBit(Policy::Fair) |
                    exec::policyBit(Policy::Biased),
                scale));
    return specs;
}

std::vector<exec::ExperimentSpec>
fig13Specs(double scale)
{
    std::vector<exec::ExperimentSpec> specs = fig09Specs(scale);
    for (exec::ExperimentSpec &spec : specs) {
        spec.policies = exec::policyBit(Policy::Shared) |
                        exec::policyBit(Policy::Biased) |
                        exec::policyBit(Policy::Dynamic);
        spec.perfWindow = 15e-6;
    }
    return specs;
}

std::map<Policy, RunningStat>
emitUnorderedPairs(const BenchOptions &opts, const std::string &title,
                   double exec::PolicyOutcome::*metric)
{
    const auto reps = representatives();
    const std::vector<exec::ExperimentSpec> ordered = fig09Specs(opts.scale);
    std::vector<exec::ExperimentSpec> specs; // the pairs with fg <= bg
    for (std::size_t i = 0; i < reps.size(); ++i)
        for (std::size_t j = i; j < reps.size(); ++j)
            specs.push_back(ordered[i * reps.size() + j]);
    const std::vector<exec::SweepResult> res = makeRunner(opts).run(specs);

    std::map<Policy, RunningStat> stats;
    Table t({"pair", "fg", "bg", "shared", "fair", "biased"});
    std::size_t k = 0;
    for (std::size_t i = 0; i < reps.size(); ++i) {
        for (std::size_t j = i; j < reps.size(); ++j, ++k) {
            std::vector<std::string> row = {repLabel(i) + "+" + repLabel(j),
                                            reps[i].name, reps[j].name};
            for (const Policy p :
                 {Policy::Shared, Policy::Fair, Policy::Biased}) {
                const double v = res[k].policy[static_cast<int>(p)].*metric;
                stats[p].add(v);
                row.push_back(Table::num(v, 3));
            }
            t.addRow(std::move(row));
        }
    }
    std::vector<std::string> avg = {"Average", "", ""};
    for (const auto &[p, stat] : stats)
        avg.push_back(Table::num(stat.mean(), 3));
    t.addRow(std::move(avg));
    emit(opts, title, t);
    return stats;
}

std::vector<AppParams>
representatives()
{
    std::vector<AppParams> reps;
    for (const auto name : Catalog::clusterRepresentatives())
        reps.push_back(Catalog::byName(name));
    return reps;
}

std::string
repLabel(std::size_t idx)
{
    return 'C' + std::to_string(idx + 1);
}

} // namespace capart::bench
