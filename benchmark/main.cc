/**
 * @file
 * capart_benchmark: one workload of the repository benchmark, in one
 * single-threaded process. benchmark/run.py builds it, times its
 * set-up, repeats it and prints the metrics; see benchmark/README.md.
 *
 *   capart_benchmark --workload=W [--seed=N] [--seconds=S] [--trace]
 *                    [--smoke] [--setup-only] [--out=DIR]
 *
 * The untraced pass drives exec::SweepRunner — the figure benches'
 * entry point — with one worker over the workload's points, closed
 * loop, and takes each point's host time from the runner's progress
 * callback. Once every point has run, it keeps recomputing points,
 * costliest first, until --seconds have passed; every recomputation
 * must match the first byte for byte. --trace adds the facade pass
 * (facade.hh) and the hot-path replay (replay.hh) for the per-layer
 * metrics. The result lands in DIR/W.json; the exit status is 0 when
 * the run finished, whatever its checks found.
 */

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <limits>
#include <memory>
#include <string>

#include "common/json.hh"
#include "exec/result_cache.hh"
#include "exec/sweep_runner.hh"
#include "facade.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/run_ledger.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "replay.hh"
#include "spans.hh"
#include "workloads.hh"

using namespace capart;
using namespace capart::harness;

namespace
{

namespace fs = std::filesystem;

/** A point slower than this counts as timed out (the slowest take ~3 s). */
constexpr double kPointLimitMs = 60'000.0;
/** Attribution sampling period of the obs-armed workload, in quanta. */
constexpr std::uint64_t kObsSamplePeriod = 64;
/** Hot-path replay length, full and --smoke. */
constexpr std::uint64_t kReplayQuanta = 20'000;
constexpr std::uint64_t kSmokeReplayQuanta = 500;

struct Options
{
    std::string workload;
    std::uint64_t seed = 12345;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
    bool setupOnly = false;
    std::string out = "build-benchmark/results";
};

[[noreturn]] void
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s --workload=W [--seed=N] [--seconds=S] "
                 "[--trace] [--smoke] [--setup-only] [--out=DIR]\n",
                 argv0);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto value = [&a](const char *flag) -> const char * {
            const std::size_t n = std::char_traits<char>::length(flag);
            return a.compare(0, n, flag) == 0 ? a.c_str() + n : nullptr;
        };
        if (const char *v = value("--workload=")) {
            o.workload = v;
        } else if (const char *v = value("--seed=")) {
            o.seed = std::strtoull(v, nullptr, 10);
        } else if (const char *v = value("--seconds=")) {
            o.seconds = std::atof(v);
        } else if (const char *v = value("--out=")) {
            o.out = v;
        } else if (a == "--trace") {
            o.trace = true;
        } else if (a == "--smoke") {
            o.smoke = true;
        } else if (a == "--setup-only") {
            o.setupOnly = true;
        } else {
            usage(argv[0]);
        }
    }
    if (o.workload.empty() || !(o.seconds >= 0.0))
        usage(argv[0]);
    return o;
}

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return static_cast<double>(nsBetween(a, b)) / 1e6;
}

/**
 * The lower median: the middle sample, or the lower of the two middle
 * ones. Host noise only ever slows a point down, so of two samples the
 * lower is the better estimate.
 */
double
lowMedian(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    return v[(v.size() - 1) / 2];
}

/** Linear-interpolated quantile @p q of @p v. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
mib(std::uintmax_t bytes)
{
    return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

std::uintmax_t
treeBytes(const fs::path &dir)
{
    std::uintmax_t n = 0;
    std::error_code ec;
    for (const auto &e : fs::recursive_directory_iterator(dir, ec)) {
        if (e.is_regular_file())
            n += e.file_size();
    }
    return n;
}

/** Counts, checks and metrics of one run; written as DIR/W.json. */
class Report
{
  public:
    void
    metric(const std::string &name, double value, const char *unit)
    {
        metrics_.set(name, Json::object()
                               .set("value", Json(value))
                               .set("unit", Json(unit)));
    }
    void info(const std::string &name, Json v) { info_.set(name, v); }

    /** One point computed; @p why is "" when it passed its checks. */
    void
    point(const std::string &label, const std::string &why)
    {
        ++attempted_;
        if (!why.empty()) {
            ++failed_;
            problems_.push(Json(label + ": " + why));
        }
    }

    /** A whole-run check (determinism, digests, replay) failed. */
    void problem(const std::string &why) { problems_.push(Json(why)); }

    Json
    toJson(const Options &o) const
    {
        Json j = Json::object();
        j.set("workload", Json(o.workload));
        j.set("seed", Json(std::to_string(o.seed)));
        j.set("trace", Json(o.trace));
        j.set("correct", Json(problems_.arr.empty()));
        j.set("attempted", Json(static_cast<double>(attempted_)));
        j.set("failed", Json(static_cast<double>(failed_)));
        j.set("problems", problems_);
        j.set("metrics", metrics_);
        j.set("info", info_);
        return j;
    }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    Json problems_ = Json::array();
    Json metrics_ = Json::object();
    Json info_ = Json::object();
};

/** Files of the obs-armed workload, all under DIR/W.obs/. */
struct ObsFiles
{
    std::string dir;
    std::string cache;
    std::string ledger;
    std::string attrDir;
    std::string trace;
    std::string metrics;
};

/** The first pass's results plus every point's host-time samples. */
struct Pass
{
    std::vector<exec::SweepResult> results;
    std::vector<std::vector<double>> pointMs;
    /** Obs-armed only: warm replay from the cache, and the exports. */
    double cacheReplayMs = 0.0;
    double exportMs = 0.0;

    /** Host seconds to compute every point once (low median per point). */
    double
    sweepS() const
    {
        double ms = cacheReplayMs + exportMs;
        for (const std::vector<double> &s : pointMs)
            ms += lowMedian(s);
        return ms / 1e3;
    }

    std::vector<double>
    firstPassMs() const
    {
        std::vector<double> v;
        for (const std::vector<double> &s : pointMs)
            v.push_back(s.front());
        return v;
    }
};

/** Runs specs through SweepRunner, one at a time, timing each point. */
class PointTimer
{
  public:
    explicit PointTimer(exec::SweepRunnerOptions opts) : opts_(std::move(opts))
    {
        opts_.jobs = 1;
        opts_.progress = [this](std::size_t, std::size_t) {
            marks_.push_back(Clock::now());
        };
    }

    /** Results of @p specs; @p ms gets each point's host time. */
    std::vector<exec::SweepResult>
    run(const std::vector<exec::ExperimentSpec> &specs,
        std::vector<double> *ms)
    {
        marks_.clear();
        const Clock::time_point start = Clock::now();
        std::vector<exec::SweepResult> r = exec::SweepRunner(opts_).run(specs);
        ms->clear();
        Clock::time_point prev = start;
        for (const Clock::time_point t : marks_) {
            ms->push_back(msBetween(prev, t));
            prev = t;
        }
        return r;
    }

  private:
    exec::SweepRunnerOptions opts_;
    std::vector<Clock::time_point> marks_;
};

/** Byte-for-byte equal in the result cache's encoding. */
bool
sameResult(const exec::SweepResult &a, const exec::SweepResult &b)
{
    return exec::ResultCache::encode(a) == exec::ResultCache::encode(b);
}

std::string
checkTimedPoint(const exec::ExperimentSpec &spec, const exec::SweepResult &r,
                double ms)
{
    if (ms > kPointLimitMs)
        return "took longer than the point time limit";
    return checkPoint(spec, r);
}

/**
 * The untraced pass: every point once, then recomputation, costliest
 * point first, until @p seconds have passed, then the determinism
 * probe on the first and last point (unless already recomputed). With
 * @p obs, the obs-armed variant: a fresh result cache, a warm replay
 * of the whole sweep from it, and the exports at the end.
 */
Pass
runPass(const Workload &w, const exec::SweepRunnerOptions &ro,
        double seconds, const ObsFiles *obs, Report &rep)
{
    const Clock::time_point begin = Clock::now();
    const std::size_t n = w.specs.size();
    PointTimer timer(ro);
    Pass p;
    std::vector<double> ms;
    p.results = timer.run(w.specs, &ms);
    p.pointMs.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
        p.pointMs[i].push_back(ms[i]);
        rep.point(pointLabel(w.specs[i]),
                  checkTimedPoint(w.specs[i], p.results[i], ms[i]));
    }

    if (obs) {
        const Clock::time_point t0 = Clock::now();
        const std::vector<exec::SweepResult> warm = timer.run(w.specs, &ms);
        p.cacheReplayMs = msBetween(t0, Clock::now());
        for (std::size_t i = 0; i < n; ++i) {
            if (!warm[i].fromCache || !sameResult(warm[i], p.results[i]))
                rep.problem("cache replay differs at " +
                            pointLabel(w.specs[i]));
        }
    }

    std::vector<bool> recomputed(n, false);
    const auto recheck = [&](std::size_t i, const exec::SweepResult &r,
                             double t) {
        std::string why = checkTimedPoint(w.specs[i], r, t);
        if (why.empty() && !sameResult(r, p.results[i]))
            why = "recomputation differs from the first run";
        rep.point(pointLabel(w.specs[i]), why);
        recomputed[i] = true;
    };
    // Costliest points first: their repeats steady sweep_s the most.
    std::vector<std::size_t> order(n);
    for (std::size_t i = 0; i < n; ++i)
        order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&p](std::size_t a, std::size_t b) {
                         return p.pointMs[a][0] > p.pointMs[b][0];
                     });
    for (std::size_t k = 0; msBetween(begin, Clock::now()) < seconds * 1e3;
         ++k) {
        const std::size_t i = order[k % n];
        if (obs) {
            // Recompute, not replay; and keep the in-memory attribution
            // batches from piling up across repeats.
            fs::remove(obs->cache);
            obs::timeseries().clear();
        }
        const std::vector<exec::SweepResult> again =
            timer.run({w.specs[i]}, &ms);
        p.pointMs[i].push_back(ms[0]);
        recheck(i, again[0], ms[0]);
    }
    for (const std::size_t i : {std::size_t{0}, n - 1}) {
        if (recomputed[i])
            continue;
        const Clock::time_point t0 = Clock::now();
        const exec::SweepResult r = exec::runSpec(w.specs[i], ro.baseSeed);
        recheck(i, r, msBetween(t0, Clock::now()));
    }

    if (obs) {
        const Clock::time_point t0 = Clock::now();
        {
            std::ofstream m(obs->metrics);
            obs::metrics().writeJson(m);
            std::ofstream t(obs->trace);
            obs::tracer().writeChromeTrace(t);
        }
        p.exportMs = msBetween(t0, Clock::now());
    }
    return p;
}

/** Warm replay of @p results from a fresh cache file, in ms. */
double
cacheReplayMs(const Workload &w, const std::vector<exec::SweepResult> &results,
              exec::SweepRunnerOptions ro, const std::string &path,
              Report &rep)
{
    fs::remove(path);
    {
        exec::ResultCache cache(path);
        for (std::size_t i = 0; i < results.size(); ++i)
            cache.store(exec::specCacheKey(w.specs[i], ro.baseSeed),
                        results[i]);
    }
    ro.cachePath = path;
    std::vector<double> ms;
    const Clock::time_point t0 = Clock::now();
    const std::vector<exec::SweepResult> warm =
        PointTimer(ro).run(w.specs, &ms);
    const double elapsed = msBetween(t0, Clock::now());
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (!warm[i].fromCache || !sameResult(warm[i], results[i]))
            rep.problem("cache replay differs at " + pointLabel(w.specs[i]));
    }
    fs::remove(path);
    return elapsed;
}

std::string
hex64(std::uint64_t v)
{
    char buf[20];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, v);
    return buf;
}

/**
 * Peak resident set of this process in MiB. VmHWM, not getrusage's
 * ru_maxrss: Linux carries ru_maxrss across exec, so it would report
 * the launching process's footprint whenever that was larger.
 */
double
rssPeakMib()
{
    std::ifstream status("/proc/self/status");
    std::string key;
    while (status >> key) {
        if (key == "VmHWM:") {
            double kib = 0.0;
            status >> kib;
            return kib / 1024.0;
        }
        status.ignore(std::numeric_limits<std::streamsize>::max(), '\n');
    }
    return 0.0;
}

void
reportFidelity(const Workload &w, const Pass &pass, Report &rep, bool e2e)
{
    const Fidelity f = fidelity(w, pass.results);
    if (e2e) {
        rep.metric("fg_slowdown", f.fgSlowdown, "x");
        rep.metric("throughput_ratio", f.throughputRatio, "x");
    } else {
        rep.info("fg_slowdown", Json(f.fgSlowdown));
        rep.info("throughput_ratio", Json(f.throughputRatio));
    }
    if (f.paperGapPct >= 0.0) {
        rep.info("paper_gap_dyn_bg_pct", Json(f.paperGapPct));
        rep.info("fg_cost_dyn_pct", Json(f.fgCostPct));
    }
}

/** Per-layer metrics of the traced run. */
void
reportLayers(const Workload &w, const Pass &pass, const Pass *plain,
             const FacadeOutcome &fac, const ReplayStats &rp,
             const SpanRecorder &rec, double cache_ms, double build_us,
             const ObsFiles *obs, Report &rep)
{
    const double points = static_cast<double>(w.specs.size());
    const std::vector<double> first = pass.firstPassMs();
    rep.metric("exec.point_ms_p50", quantile(first, 0.5), "ms");
    rep.metric("exec.point_ms_p90", quantile(first, 0.9), "ms");
    rep.metric("exec.point_samples", points, "count");
    rep.metric("exec.cache_replay_ms", cache_ms, "ms");

    const double point_ns = static_cast<double>(rec.totalNs("point"));
    const auto share = [&](const std::string &span) {
        return static_cast<double>(rec.totalNs(span)) / point_ns;
    };
    rep.metric("core.solo_share", share("core.solo"), "ratio");
    rep.metric("core.biased_search_share", share("core.biased_search"),
               "ratio");
    for (const char *p : {"shared", "fair", "biased", "dynamic", "ucp",
                          "lfoc"}) {
        rep.metric(std::string("core.policy_share.") + p,
                   share(std::string("core.policy.") + p), "ratio");
    }
    rep.metric("core.biased_splits_per_point",
               static_cast<double>(fac.biasedSplits) / points, "count");
    rep.metric("core.fallback_points",
               static_cast<double>(fac.fallbacks.size()), "count");
    rep.metric("core.rejected_samples",
               static_cast<double>(fac.rejectedSamples), "count");
    rep.metric("core.remasks_per_point",
               static_cast<double>(fac.remasks) / points, "count");
    rep.metric("analysis.miss_curve_ms", quantile(fac.missCurveMs, 0.5),
               "ms");
    rep.metric("analysis.miss_curve_share",
               fac.missCurveInPointsMs * 1e6 / point_ns, "ratio");
    rep.metric("sim.host_ns_per_inst",
               static_cast<double>(fac.simNs) / fac.simInsts, "ns");
    rep.metric("sim.system_build_us", build_us, "us");

    const double acc = static_cast<double>(rp.accesses);
    const double quanta = static_cast<double>(rp.quanta);
    const double cached = static_cast<double>(rp.cached);
    const auto ns = [&rp](Layer l) {
        return static_cast<double>(rp.layerNs(l));
    };
    rep.metric("workload.ns_per_access", ns(Layer::Workload) / acc, "ns");
    rep.metric("workload.accesses_per_kinst",
               1e3 * acc / static_cast<double>(rp.insts), "count");
    rep.metric("mem.ns_per_access",
               (ns(Layer::Mem) - rp.prefetchNs()) / acc, "ns");
    rep.metric("mem.l1_hit_ratio",
               static_cast<double>(rp.l1Hits) / cached, "ratio");
    rep.metric("mem.l2_hit_ratio",
               static_cast<double>(rp.l2Hits) /
                   (cached - static_cast<double>(rp.l1Hits)),
               "ratio");
    rep.metric("mem.llc_hit_ratio",
               static_cast<double>(rp.llcHits) /
                   static_cast<double>(rp.llcHits + rp.llcMisses),
               "ratio");
    rep.metric("mem.dram_lines_per_kaccess",
               1e3 * static_cast<double>(rp.dramLines) / acc, "count");
    rep.metric("prefetch.ns_per_access", rp.prefetchNs() / acc, "ns");
    rep.metric("prefetch.requests_per_kaccess",
               1e3 * static_cast<double>(rp.prefetchRequests) / acc,
               "count");
    rep.metric("dram.ns_per_quantum", ns(Layer::Dram) / quanta, "ns");
    rep.metric("interconnect.ns_per_quantum",
               ns(Layer::Interconnect) / quanta, "ns");
    rep.metric("cpu.ns_per_quantum", ns(Layer::Cpu) / quanta, "ns");
    rep.metric("energy.ns_per_quantum", ns(Layer::Energy) / quanta, "ns");
    rep.metric("perf.ns_per_quantum", ns(Layer::Perf) / quanta, "ns");
    rep.metric("replay.ns_per_access",
               static_cast<double>(rp.spanNs()) / acc, "ns");

    double overhead_pct = 0.0, ledger = 0.0, attr = 0.0, trace = 0.0;
    double dropped = 0.0;
    if (obs) {
        overhead_pct = 100.0 * (pass.sweepS() / plain->sweepS() - 1.0);
        ledger = mib(fs::file_size(obs->ledger));
        attr = mib(treeBytes(obs->attrDir));
        trace = mib(fs::file_size(obs->trace));
        dropped = static_cast<double>(obs::tracer().dropped());
    }
    rep.metric("obs.overhead_pct", overhead_pct, "%");
    rep.metric("obs.ledger_mb", ledger, "MiB");
    rep.metric("obs.attr_mb", attr, "MiB");
    rep.metric("obs.trace_mb", trace, "MiB");
    rep.metric("obs.trace_dropped", dropped, "count");
    rep.metric("obs.export_ms", pass.exportMs, "ms");

    double untraced_ms = 0.0;
    for (const double v : first)
        untraced_ms += v;
    rep.metric("trace.overhead_ratio", point_ns / 1e6 / untraced_ms,
               "ratio");

    // Layer self times against the replay span they must fill.
    const double covered =
        1.0 - ns(Layer::Sched) / static_cast<double>(rp.spanNs());
    rep.info("replay_layer_coverage", Json(covered));
    if (covered < 0.95)
        rep.problem("replay layers cover under 95% of the replay span");
    if (!rp.retimeMatched)
        rep.problem("prefetcher re-timing diverged from the drain");
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    Workload w;
    if (!makeWorkload(o.workload, o.smoke, &w)) {
        std::fprintf(stderr, "unknown workload '%s'\n", o.workload.c_str());
        return 2;
    }
    fs::create_directories(o.out);
    Report rep;

    exec::SweepRunnerOptions plain;
    plain.baseSeed = o.seed;
    plain.benchName = w.name;

    // The obs-armed workload is napp_mixes with every export on. Its
    // traced run first measures the same sweep with obs off, so the
    // overhead ratio comes from one process.
    Pass plain_pass;
    if (o.trace && w.obsArmed && !o.setupOnly)
        plain_pass = runPass(w, plain, 0.0, nullptr, rep);

    std::unique_ptr<ObsFiles> obs;
    std::unique_ptr<obs::RunLedger> ledger;
    exec::SweepRunnerOptions ro = plain;
    if (w.obsArmed) {
        obs = std::make_unique<ObsFiles>();
        obs->dir = o.out + "/" + w.name + ".obs";
        obs->cache = obs->dir + "/sweep.cache";
        obs->ledger = obs->dir + "/ledger.jsonl";
        obs->attrDir = obs->dir + "/attr";
        obs->trace = obs->dir + "/trace.json";
        obs->metrics = obs->dir + "/metrics.json";
        fs::remove_all(obs->dir);
        fs::create_directories(obs->attrDir);
        obs::setEnabled(true);
        obs::timeseries().setPeriod(kObsSamplePeriod);
        ledger = std::make_unique<obs::RunLedger>(obs->ledger);
        exec::ResultCache::initializeFile(obs->cache);
        ro.cachePath = obs->cache;
        ro.ledger = ledger.get();
        ro.runId = w.name + "-" + std::to_string(o.seed);
        ro.attrDir = obs->attrDir;
    }
    if (o.setupOnly)
        return 0;

    const Pass pass = runPass(w, ro, o.trace ? 0.0 : o.seconds, obs.get(),
                              rep);
    const std::uint64_t digest = simDigest(pass.results);
    rep.info("sim_digest", Json(hex64(digest)));
    rep.info("points", Json(static_cast<double>(w.specs.size())));
    Json samples = Json::array();
    for (const std::vector<double> &s : pass.pointMs) {
        Json row = Json::array();
        for (const double v : s)
            row.push(Json(v));
        samples.push(std::move(row));
    }
    rep.info("point_ms", samples);
    reportFidelity(w, pass, rep, !o.trace);

    if (!o.trace) {
        rep.metric("sweep_s", pass.sweepS(), "s");
        rep.metric("rss_peak_mb", rssPeakMib(), "MiB");
    } else {
        SpanRecorder rec;
        const FacadeOutcome fac =
            runFacade(w, o.seed, rec, o.out + "/" + w.name + ".log.jsonl");
        for (std::size_t i = 0; i < fac.results.size(); ++i)
            rep.point(pointLabel(w.specs[i]),
                      checkPoint(w.specs[i], fac.results[i]));
        if (simDigest(fac.results) != digest)
            rep.problem("traced pass digest " +
                        hex64(simDigest(fac.results)) +
                        " differs from the untraced " + hex64(digest));
        Json falls = Json::array();
        for (const auto &[label, count] : fac.fallbacks)
            falls.push(Json::object()
                           .set("point", Json(label))
                           .set("fallbacks",
                                Json(static_cast<double>(count))));
        rep.info("fallback_points", falls);

        const ReplayStats rp =
            runReplay(w, o.seed, o.smoke ? kSmokeReplayQuanta : kReplayQuanta,
                      rec);
        const std::string drift = checkReplayFidelity(w, o.seed);
        if (!drift.empty())
            rep.problem("replay does not reproduce the simulator: " + drift);
        const double cache_ms =
            obs ? pass.cacheReplayMs
                : cacheReplayMs(w, pass.results, plain,
                                o.out + "/" + w.name + ".cache", rep);
        reportLayers(w, pass, obs ? &plain_pass : nullptr, fac, rp, rec,
                     cache_ms, systemBuildUs(w, o.seed), obs.get(), rep);

        std::ofstream trace(o.out + "/" + w.name + ".trace.json");
        rec.writeChromeTrace(trace, w.pid, w.name);
    }

    std::ofstream out(o.out + "/" + w.name + ".json");
    rep.toJson(o).write(out);
    out << '\n';
    return out ? 0 : 1;
}
