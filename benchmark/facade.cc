#include "facade.hh"

#include <filesystem>
#include <fstream>
#include <iterator>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/co_scheduler.hh"
#include "core/napp.hh"
#include "obs/obs.hh"
#include "workload/catalog.hh"

namespace capart::harness
{

namespace
{

/** Reads what was appended to the structured log since the last call. */
class LogTail
{
  public:
    explicit LogTail(std::string path) : path_(std::move(path)) {}

    /** Occurrences of each needle in the text appended since then. */
    std::vector<std::uint64_t>
    count(const std::vector<std::string> &needles)
    {
        std::ifstream in(path_, std::ios::binary);
        in.seekg(static_cast<std::streamoff>(offset_));
        const std::string text((std::istreambuf_iterator<char>(in)),
                               std::istreambuf_iterator<char>());
        offset_ += text.size();
        std::vector<std::uint64_t> n(needles.size(), 0);
        for (std::size_t i = 0; i < needles.size(); ++i) {
            for (std::size_t at = text.find(needles[i]);
                 at != std::string::npos;
                 at = text.find(needles[i], at + 1))
                ++n[i];
        }
        return n;
    }

  private:
    std::string path_;
    std::size_t offset_ = 0;
};

/** An NApp spec's members and study options, built as runSpec does. */
struct NAppInputs
{
    std::vector<NAppMember> members;
    NAppStudyOptions options;
};

NAppInputs
nappInputs(const exec::ExperimentSpec &spec, std::uint64_t seed)
{
    NAppInputs in;
    in.options.run.system = nAppSystem(spec.cores, spec.llcWays, seed);
    in.options.run.scale = spec.scale;
    if (spec.perfWindow > 0.0)
        in.options.run.system.perfWindow = spec.perfWindow;
    const std::vector<std::string> names = exec::splitAppList(spec.napps);
    for (std::size_t i = 0; i < names.size(); ++i) {
        NAppMember m;
        m.params = Catalog::byName(names[i]);
        m.threads = spec.threads;
        m.continuous = i != 0; // app 0 is the foreground
        in.members.push_back(std::move(m));
    }
    return in;
}

/** One facade call per layer, each in its own span. */
class FacadePass
{
  public:
    FacadePass(SpanRecorder &rec, FacadeOutcome &out, LogTail &log)
        : rec_(rec), out_(out), log_(log)
    {
    }

    exec::SweepResult solo(const exec::ExperimentSpec &spec,
                           std::uint64_t seed);
    exec::SweepResult pair(const exec::ExperimentSpec &spec,
                           std::uint64_t seed);
    exec::SweepResult consolidation(const exec::ExperimentSpec &spec,
                                    std::uint64_t seed);
    exec::SweepResult napp(const exec::ExperimentSpec &spec,
                           std::uint64_t seed, int point);

    /**
     * After an NApp point's span closed: re-time the miss-curve
     * profiling runNApp did inside its UCP and LFOC runs, one
     * profileMissCurve per member, in a span of its own.
     */
    void missCurveProbe(const exec::ExperimentSpec &spec,
                        std::uint64_t seed);

  private:
    /** Close span @p id and charge it as simulator time. */
    void
    closeSim(int id, double insts)
    {
        rec_.close(id);
        out_.simNs += rec_.spans()[id].durationNs();
        out_.simInsts += insts;
    }

    void noteFallbacks(const exec::ExperimentSpec &spec,
                       std::uint64_t fallbacks);

    SpanRecorder &rec_;
    FacadeOutcome &out_;
    LogTail &log_;
};

void
FacadePass::noteFallbacks(const exec::ExperimentSpec &spec,
                          std::uint64_t fallbacks)
{
    if (fallbacks > 0)
        out_.fallbacks.emplace_back(pointLabel(spec), fallbacks);
}

exec::SweepResult
FacadePass::solo(const exec::ExperimentSpec &spec, std::uint64_t seed)
{
    SoloOptions o;
    o.threads = spec.threads;
    o.ways = spec.ways;
    o.scale = spec.scale;
    o.system.seed = seed;
    o.system.prefetch = PrefetchConfig::allEnabled(spec.prefetchAll);
    if (spec.perfWindow > 0.0)
        o.system.perfWindow = spec.perfWindow;
    const int id = rec_.open("core.solo");
    const SoloResult r = runSolo(Catalog::byName(spec.fg), o);
    closeSim(id, static_cast<double>(r.app.retired));
    exec::SweepResult out;
    out.time = r.time;
    out.socketEnergy = r.socketEnergy;
    out.wallEnergy = r.wallEnergy;
    out.mpki = r.app.mpki();
    out.apki = r.app.apki();
    out.ipc = r.app.ipc();
    out.timedOut = r.timedOut;
    return out;
}

exec::SweepResult
FacadePass::pair(const exec::ExperimentSpec &spec, std::uint64_t seed)
{
    PairOptions o;
    o.fgThreads = spec.threads;
    o.bgThreads = spec.threads;
    o.bgContinuous = spec.bgContinuous;
    o.scale = spec.scale;
    o.system.seed = seed;
    if (spec.perfWindow > 0.0)
        o.system.perfWindow = spec.perfWindow;
    if (spec.fgMaskWays > 0) {
        const SplitMasks m =
            splitWays(spec.fgMaskWays, SystemConfig{}.hierarchy.llc.ways);
        o.fgMask = m.fg;
        o.bgMask = m.bg;
    }
    // An unpartitioned pair is the shared policy's run.
    const int id = rec_.open(spec.fgMaskWays > 0 ? "core.policy.fair"
                                                 : "core.policy.shared");
    const PairResult r =
        runPair(Catalog::byName(spec.fg), Catalog::byName(spec.bg), o);
    closeSim(id, static_cast<double>(r.fg.retired + r.bg.retired));
    exec::SweepResult out;
    out.time = r.fgTime;
    out.bgThroughput = r.bgThroughput;
    out.socketEnergy = r.socketEnergy;
    out.wallEnergy = r.wallEnergy;
    out.mpki = r.fg.mpki();
    out.apki = r.fg.apki();
    out.ipc = r.fg.ipc();
    out.timedOut = r.timedOut;
    return out;
}

exec::SweepResult
FacadePass::consolidation(const exec::ExperimentSpec &spec,
                          std::uint64_t seed)
{
    CoScheduleOptions co;
    co.threadsEach = spec.threads;
    co.scale = spec.scale;
    co.system.seed = seed;
    co.monitorSlo = obs::enabled();
    if (spec.perfWindow > 0.0)
        co.system.perfWindow = spec.perfWindow;
    CoScheduler cs(Catalog::byName(spec.fg), Catalog::byName(spec.bg), co);

    // CoScheduler caches every run, so calling the layers one at a time
    // first and summarize() afterwards computes exactly what runSpec's
    // summarize() loop computes, with each layer in its own span.
    const int solo = rec_.open("core.solo");
    const double solo_insts =
        static_cast<double>(cs.fgSoloHalf().app.retired +
                            cs.fgSoloFull().app.retired +
                            cs.bgSoloFull().app.retired);
    closeSim(solo, solo_insts);
    if (spec.policies & exec::policyBit(Policy::Biased)) {
        ScopedSpan search(rec_, "core.biased_search");
        const std::size_t splits = cs.biased().sweep.size();
        search.arg("splits", static_cast<double>(splits));
        out_.biasedSplits += splits;
    }

    exec::SweepResult out;
    for (const Policy p : {Policy::Shared, Policy::Fair, Policy::Biased,
                           Policy::Dynamic}) {
        if (!(spec.policies & exec::policyBit(p)))
            continue;
        // The biased policy's split was searched in its own span above;
        // this span holds only its two pair runs.
        const int id = rec_.open(std::string("core.policy.") + policyName(p));
        double insts = 0.0;
        std::uint64_t fallbacks = 0, rejected = 0, remasks = 0;
        for (const bool continuous : {true, false}) {
            const PairResult &r = cs.runPolicy(p, continuous);
            insts += static_cast<double>(r.fg.retired + r.bg.retired);
            if (p != Policy::Dynamic)
                continue;
            const DynamicPartitioner &ctrl = *cs.lastDynamicController();
            fallbacks += countHealthEvents(ctrl.healthLog(),
                                           HealthEventKind::FallbackEntered);
            rejected += ctrl.rejectedSamples();
            remasks += ctrl.reallocations();
        }
        if (p == Policy::Dynamic) {
            rec_.arg(id, "fallbacks", static_cast<double>(fallbacks));
            rec_.arg(id, "rejected_samples", static_cast<double>(rejected));
            rec_.arg(id, "remasks", static_cast<double>(remasks));
            noteFallbacks(spec, fallbacks);
            out_.rejectedSamples += rejected;
            out_.remasks += remasks;
        }
        closeSim(id, insts);

        const ConsolidationSummary s = cs.summarize(p);
        exec::PolicyOutcome &po = out.policy[static_cast<int>(p)];
        po.present = true;
        po.fgSlowdown = s.fgSlowdown;
        po.bgThroughput = s.bgThroughput;
        po.energyVsSequential = s.energyVsSequential;
        po.wallEnergyVsSequential = s.wallEnergyVsSequential;
        po.weightedSpeedup = s.weightedSpeedup;
        po.fgWays = s.fgWays;
    }
    return out;
}

exec::SweepResult
FacadePass::napp(const exec::ExperimentSpec &spec, std::uint64_t seed,
                 int point)
{
    const NAppInputs in = nappInputs(spec, seed);
    NAppStudy study(in.members, in.options);
    {
        ScopedSpan solo(rec_, "core.solo");
        for (std::size_t i = 0; i < in.members.size(); ++i)
            study.soloIps(i);
    }
    exec::SweepResult out;
    for (unsigned i = 0; i < kNumNPolicies; ++i) {
        const NPolicy p = static_cast<NPolicy>(i);
        if (!(spec.npolicies & npolicyBit(p)))
            continue;
        const int id = rec_.open(std::string("core.policy.") + npolicyName(p));
        const NAppRunResult &run = study.runPolicy(p);
        out_.remasks += run.remasks;
        rec_.arg(id, "remasks", static_cast<double>(run.remasks));
        if (p == NPolicy::Ucp || p == NPolicy::Lfoc) {
            // These runs profile every member's miss curve first, so
            // they are not pure simulator time.
            rec_.close(id);
        } else {
            double insts = 0.0;
            for (const AppRunStats &a : run.apps)
                insts += static_cast<double>(a.retired);
            closeSim(id, insts);
        }

        const NAppPolicySummary s = study.summarize(p);
        exec::NAppPolicyOutcome &po = out.napp[i];
        po.present = true;
        po.stp = s.stp;
        po.throughputIps = s.throughputIps;
        po.unfairness = s.unfairness;
        po.fgSlowdown = s.fgSlowdown;
        po.socketEnergyJ = s.socketEnergyJ;
        po.wallEnergyJ = s.wallEnergyJ;
        po.sloBreaches = s.sloBreaches;
        po.remasks = static_cast<unsigned>(s.remasks);
        out.timedOut = out.timedOut || s.timedOut;
    }
    // NAppStudy keeps its dynamic controller private; its health
    // events reach the structured log.
    const std::vector<std::uint64_t> health =
        log_.count({"\"kind\":\"fallback-entered\"",
                    "\"kind\":\"sample-rejected\""});
    rec_.arg(point, "fallbacks", static_cast<double>(health[0]));
    noteFallbacks(spec, health[0]);
    out_.rejectedSamples += health[1];
    return out;
}

void
FacadePass::missCurveProbe(const exec::ExperimentSpec &spec,
                           std::uint64_t seed)
{
    const unsigned curve_policies =
        ((spec.npolicies & npolicyBit(NPolicy::Ucp)) ? 1u : 0u) +
        ((spec.npolicies & npolicyBit(NPolicy::Lfoc)) ? 1u : 0u);
    if (curve_policies == 0)
        return;
    const NAppInputs in = nappInputs(spec, seed);
    ScopedSpan probe(rec_, "analysis.miss_curve");
    double sum_ms = 0.0;
    for (const NAppMember &m : in.members) {
        const Clock::time_point t0 = Clock::now();
        profileMissCurve(m.params, in.options.run.system,
                         in.options.run.scale,
                         in.options.run.profileAccesses);
        const double ms =
            static_cast<double>(nsBetween(t0, Clock::now())) / 1e6;
        out_.missCurveMs.push_back(ms);
        sum_ms += ms;
    }
    out_.missCurveInPointsMs += curve_policies * sum_ms;
}

} // namespace

FacadeOutcome
runFacade(const Workload &w, std::uint64_t seed, SpanRecorder &rec,
          const std::string &log_path)
{
    FacadeOutcome out;
    std::filesystem::remove(log_path);
    setLogSink(log_path);
    LogTail log(log_path);
    FacadePass pass(rec, out, log);
    for (std::size_t i = 0; i < w.specs.size(); ++i) {
        const exec::ExperimentSpec &spec = w.specs[i];
        const std::uint64_t point_seed = mixSeed(seed, spec.hash());
        const int point = rec.open("point");
        rec.arg(point, "index", static_cast<double>(i));
        exec::SweepResult r;
        switch (spec.kind) {
          case exec::SpecKind::Solo:
            r = pass.solo(spec, point_seed);
            break;
          case exec::SpecKind::Pair:
            r = pass.pair(spec, point_seed);
            break;
          case exec::SpecKind::Consolidation:
            r = pass.consolidation(spec, point_seed);
            break;
          case exec::SpecKind::NApp:
            r = pass.napp(spec, point_seed, point);
            break;
        }
        rec.close(point);
        if (spec.kind == exec::SpecKind::NApp)
            pass.missCurveProbe(spec, point_seed);
        out.results.push_back(r);
    }
    setLogSink("");
    return out;
}

} // namespace capart::harness
