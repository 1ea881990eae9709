#include "replay.hh"

#include <algorithm>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "core/napp.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/access_ring.hh"
#include "workload/catalog.hh"

namespace capart::harness
{

std::int64_t
ReplayStats::spanNs() const
{
    std::int64_t total = 0;
    for (const std::int64_t v : ns)
        total += v;
    return total;
}

double
ReplayStats::prefetchNs() const
{
    if (retimeAccesses == 0)
        return 0.0;
    return static_cast<double>(retimeNs) * static_cast<double>(cached) /
           static_cast<double>(retimeAccesses);
}

namespace
{

/** Re-time the prefetchers on every this-many-th quantum. */
constexpr std::uint64_t kRetimeEvery = 16;
/** Points of a workload the replay visits at most. */
constexpr std::size_t kReplayPoints = 6;
/** System constructions timed by systemBuildUs. */
constexpr int kBuildSamples = 15;

/** One co-runner of a replayed machine. */
struct MixApp
{
    /** Unscaled catalog parameters (the facades scale them). */
    AppParams params;
    unsigned threads = 1;
    bool continuous = false;
    /** Empty = every way. */
    WayMask mask;
};

/** The machine and app mix one sweep point simulates. */
struct Mix
{
    SystemConfig cfg;
    double scale = 1.0;
    std::vector<MixApp> apps;
};

/** The machine runSpec would build for @p spec at base seed @p seed. */
Mix
mixOf(const exec::ExperimentSpec &spec, std::uint64_t seed)
{
    Mix m;
    m.scale = spec.scale;
    const std::uint64_t point_seed = mixSeed(seed, spec.hash());
    const auto app = [](const std::string &name, unsigned threads,
                        bool continuous, WayMask mask = WayMask{}) {
        return MixApp{Catalog::byName(name), threads, continuous, mask};
    };
    switch (spec.kind) {
      case exec::SpecKind::Solo: {
        m.cfg.prefetch = PrefetchConfig::allEnabled(spec.prefetchAll);
        const unsigned total = m.cfg.hierarchy.llc.ways;
        m.apps.push_back(app(spec.fg, spec.threads, false,
                             spec.ways < total ? WayMask::range(0, spec.ways)
                                               : WayMask{}));
        break;
      }
      case exec::SpecKind::Pair: {
        SplitMasks masks;
        if (spec.fgMaskWays > 0)
            masks = splitWays(spec.fgMaskWays, m.cfg.hierarchy.llc.ways);
        m.apps.push_back(app(spec.fg, spec.threads, false, masks.fg));
        m.apps.push_back(
            app(spec.bg, spec.threads, spec.bgContinuous, masks.bg));
        break;
      }
      case exec::SpecKind::Consolidation:
        // The shared policy's continuous-background run.
        m.apps.push_back(app(spec.fg, spec.threads, false));
        m.apps.push_back(app(spec.bg, spec.threads, true));
        break;
      case exec::SpecKind::NApp: {
        m.cfg = nAppSystem(spec.cores, spec.llcWays);
        const std::vector<std::string> names =
            exec::splitAppList(spec.napps);
        for (std::size_t i = 0; i < names.size(); ++i)
            m.apps.push_back(app(names[i], spec.threads, i != 0));
        break;
      }
    }
    m.cfg.seed = point_seed;
    if (spec.perfWindow > 0.0)
        m.cfg.perfWindow = spec.perfWindow;
    return m;
}

/** Accumulates host time into the layer the last interval belonged to. */
class LayerClock
{
  public:
    explicit LayerClock(std::array<std::int64_t, kNumLayers> &ns) : ns_(ns)
    {
    }

    /** Start an interval (nothing is charged for the time before). */
    void start() { last_ = Clock::now(); }

    /** Charge the time since the last reading to @p layer. */
    void
    lap(Layer layer)
    {
        const Clock::time_point now = Clock::now();
        ns_[static_cast<std::size_t>(layer)] += nsBetween(last_, now);
        last_ = now;
    }

  private:
    std::array<std::int64_t, kNumLayers> &ns_;
    Clock::time_point last_;
};

/** Per-app completion times, retired instructions and socket energy. */
struct RunDigest
{
    std::vector<double> completion;
    std::vector<Insts> retired;
    double socketEnergy = 0.0;
    bool timedOut = false;
};

/**
 * System's state and quantum loop rebuilt from the component classes.
 * Construction mirrors System::System, addAppThreads and run()'s
 * preamble; step() mirrors stepHt call for call.
 */
class ReplayMachine
{
  public:
    ReplayMachine(const Mix &mix, bool all_continuous);

    ReplayMachine(const ReplayMachine &) = delete;
    ReplayMachine &operator=(const ReplayMachine &) = delete;

    /** The runnable thread furthest behind in simulated time. */
    std::optional<HwThreadId> pickNext() const;

    /**
     * One quantum on @p ht. With @p sample set, snapshot the core's
     * prefetchers and the drain's miss flags so retime() can re-run
     * the prefetchers' share of it.
     */
    void step(HwThreadId ht, LayerClock &clock, ReplayStats &st,
              bool sample);

    /** Re-run the sampled quantum's PrefetcherBank::observe calls. */
    void retime(ReplayStats &st);

    bool primariesDone() const;
    Seconds localTime(HwThreadId ht) const { return hts_[ht].localTime; }
    const SystemConfig &config() const { return cfg_; }
    RunDigest digest(bool timed_out) const;

  private:
    struct AppState
    {
        AppParams params;
        bool continuous = false;
        std::vector<HwThreadId> hts;
        Insts iterationWork = 0;
        Insts retiredTotal = 0;
        Cycles cycles = 0;
        std::uint64_t llcAccesses = 0;
        std::uint64_t llcMisses = 0;
        bool completed = false;
        Seconds completionTime = 0.0;
        unsigned threadsDone = 0;
        std::unique_ptr<PerfMonitor> perf;
    };

    struct HtState
    {
        AppId app = kNoApp;
        std::unique_ptr<ThreadWorkload> workload;
        Seconds localTime = 0.0;
        bool idle = true;
    };

    void addApp(const MixApp &m, unsigned first_core, bool continuous);
    bool siblingActive(HwThreadId ht) const;

    SystemConfig cfg_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    DramModel dram_;
    RingInterconnect ring_;
    CoreTimingModel timing_;
    EnergyModel energy_;
    HierarchyLatencies latencies_;
    std::vector<PrefetcherBank> prefetchers_;
    std::vector<AppState> apps_;
    std::vector<HtState> hts_;
    AccessRing accessRing_;
    std::vector<PrefetchRequest> prefetchBuf_;

    /** Sampled quantum: its core's prefetchers before the drain, the
     *  drain's per-access L1-miss flags and issued request count. */
    PrefetcherBank snapshot_;
    std::vector<bool> missed_;
    std::uint64_t sampledRequests_ = 0;
};

ReplayMachine::ReplayMachine(const Mix &mix, bool all_continuous)
    : cfg_(mix.cfg),
      hierarchy_(std::make_unique<CacheHierarchy>(cfg_.hierarchy,
                                                  cfg_.numCores, cfg_.seed)),
      dram_(cfg_.dram), ring_(cfg_.ring), timing_(cfg_.cpu),
      energy_(cfg_.energy)
{
    latencies_.l1 = cfg_.hierarchy.l1Latency;
    latencies_.l2 = cfg_.hierarchy.l2Latency;
    latencies_.llc = cfg_.hierarchy.llcLatency;
    prefetchers_.assign(cfg_.numCores, PrefetcherBank(cfg_.prefetch));
    hts_.resize(cfg_.numHts());
    prefetchBuf_.reserve(16);

    unsigned core = 0;
    for (const MixApp &m : mix.apps) {
        addApp(MixApp{m.params.scaled(mix.scale), m.threads, m.continuous,
                      m.mask},
               core, all_continuous || m.continuous);
        core += (m.threads + cfg_.htsPerCore - 1) / cfg_.htsPerCore;
    }
    // run()'s preamble.
    for (HtState &h : hts_) {
        if (h.app != kNoApp)
            h.idle = h.workload->totalWork() == 0;
    }
    for (AppState &a : apps_) {
        if (!a.continuous && a.iterationWork == 0)
            a.completed = true;
    }
}

void
ReplayMachine::addApp(const MixApp &m, unsigned first_core, bool continuous)
{
    const AppId id = static_cast<AppId>(apps_.size());
    AppState app;
    app.params = m.params;
    app.params.validate();
    app.continuous = continuous;
    for (unsigned i = 0; i < m.threads; ++i)
        app.hts.push_back(first_core * cfg_.htsPerCore + i);
    app.perf = std::make_unique<PerfMonitor>(cfg_.perfWindow);
    const Addr base = kAppAddressStride * (static_cast<Addr>(id) + 1);
    for (unsigned t = 0; t < m.threads; ++t) {
        HtState &h = hts_.at(app.hts[t]);
        capart_assert(h.app == kNoApp);
        h.app = id;
        h.workload = std::make_unique<ThreadWorkload>(
            app.params, t, m.threads, base,
            cfg_.seed ^ (0x1234567ULL * (id + 1)) ^ (t * 0x9e37ULL));
        app.iterationWork += h.workload->totalWork();
    }
    apps_.push_back(std::move(app));
    if (!m.mask.empty())
        hierarchy_->setLlcPartition(id, m.mask);
}

std::optional<HwThreadId>
ReplayMachine::pickNext() const
{
    std::optional<HwThreadId> best;
    for (HwThreadId h = 0; h < hts_.size(); ++h) {
        if (hts_[h].idle)
            continue;
        if (!best || hts_[h].localTime < hts_[*best].localTime)
            best = h;
    }
    return best;
}

bool
ReplayMachine::siblingActive(HwThreadId ht) const
{
    if (cfg_.htsPerCore < 2)
        return false;
    const HwThreadId base = (ht / cfg_.htsPerCore) * cfg_.htsPerCore;
    const HwThreadId sib = ht == base ? base + 1 : base;
    return sib < hts_.size() && !hts_[sib].idle;
}

bool
ReplayMachine::primariesDone() const
{
    for (const AppState &a : apps_) {
        if (!a.continuous && !a.completed)
            return false;
    }
    return true;
}

void
ReplayMachine::step(HwThreadId ht, LayerClock &clock, ReplayStats &st,
                    bool sample)
{
    HtState &h = hts_[ht];
    AppState &a = apps_[h.app];
    ThreadWorkload &wl = *h.workload;
    const CoreId core = ht / cfg_.htsPerCore;
    PrefetcherBank &pf = prefetchers_[core];
    if (sample) {
        snapshot_ = pf;
        missed_.clear();
        clock.start(); // the snapshot is not simulator work
    }

    const double progress =
        wl.totalWork()
            ? std::min(1.0, static_cast<double>(wl.retired()) /
                                static_cast<double>(wl.totalWork()))
            : 1.0;
    accessRing_.clear();
    const Insts insts =
        wl.runQuantum(cfg_.quantumInsts, progress, accessRing_);
    capart_assert(insts > 0);
    clock.lap(Layer::Workload);

    QuantumCounts q;
    q.insts = insts;
    std::uint64_t llc_demand = 0;
    std::uint64_t llc_demand_miss = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
    std::uint64_t uncached_bytes = 0;
    std::uint64_t prefetch_fills = 0;
    std::uint64_t prefetch_dram_reads = 0;
    std::uint64_t requests = 0;
    for (const MemAccess &acc : accessRing_) {
        if (acc.uncached) {
            uncached_bytes += kLineBytes;
            dram_.recordUncached(h.localTime, kLineBytes, h.app);
            continue;
        }
        const HierarchyOutcome out =
            hierarchy_->access(core, h.app, acc.addr, acc.write);
        switch (out.servedBy) {
          case ServiceLevel::L1:
            ++q.l1Hits;
            break;
          case ServiceLevel::L2:
            ++q.l2Hits;
            break;
          case ServiceLevel::LLC:
            ++q.llcHits;
            break;
          case ServiceLevel::Memory:
            ++q.llcMisses;
            ++llc_demand_miss;
            break;
        }
        if (out.llcAccess)
            ++llc_demand;
        dram_reads += out.dramReads;
        dram_writes += out.dramWrites;

        prefetchBuf_.clear();
        const bool missed = out.servedBy != ServiceLevel::L1;
        pf.observe(acc.pc, lineAddr(acc.addr), missed, prefetchBuf_);
        if (sample)
            missed_.push_back(missed);
        requests += prefetchBuf_.size();
        for (const PrefetchRequest &req : prefetchBuf_) {
            const HierarchyOutcome pout =
                req.intoL1
                    ? hierarchy_->prefetchIntoL1(core, h.app, req.line)
                    : hierarchy_->prefetchIntoL2(core, h.app, req.line);
            dram_reads += pout.dramReads;
            dram_writes += pout.dramWrites;
            prefetch_dram_reads += pout.dramReads;
            if (pout.llcAccess)
                ++prefetch_fills;
        }
    }
    clock.lap(Layer::Mem);

    const std::uint64_t quantum_bytes =
        (dram_reads + dram_writes) * kLineBytes + uncached_bytes;
    unsigned active_threads = 0;
    for (const HwThreadId hw : a.hts)
        active_threads += !hts_[hw].idle;
    if (active_threads == 0)
        active_threads = 1;
    const double avail_bw =
        dram_.availableFor(h.localTime, h.app) / active_threads;
    if (dram_reads) {
        dram_.recordRead(h.localTime, static_cast<unsigned>(dram_reads),
                         h.app);
    }
    if (dram_writes) {
        dram_.recordWrite(h.localTime, static_cast<unsigned>(dram_writes),
                          h.app);
    }
    clock.lap(Layer::Dram);
    const std::uint64_t ring_bytes =
        (llc_demand + prefetch_fills + dram_reads + dram_writes) *
            kLineBytes +
        uncached_bytes;
    if (ring_bytes)
        ring_.domain().record(h.localTime, ring_bytes);
    clock.lap(Layer::Interconnect);
    q.memLatency = dram_.effectiveLatency(h.localTime);
    clock.lap(Layer::Dram);
    q.ringExtra = ring_.extraLatency(h.localTime);
    clock.lap(Layer::Interconnect);

    const bool peer = siblingActive(ht);
    const StallBreakdown stalls = timing_.quantumBreakdown(
        q, a.params.baseIpc, wl.effectiveMlp(progress), peer, latencies_);
    const Cycles model_cycles = CoreTimingModel::totalCycles(stalls);
    Cycles cycles = model_cycles;
    if (quantum_bytes) {
        const Seconds bw_time =
            static_cast<double>(quantum_bytes) / avail_bw;
        const auto bw_cycles =
            static_cast<Cycles>(bw_time * timing_.config().freqHz);
        cycles = std::max(cycles, bw_cycles);
    }
    const Seconds dt = timing_.cyclesToSeconds(cycles);
    clock.lap(Layer::Cpu);
    if (quantum_bytes) {
        const double stretch = static_cast<double>(cycles) /
                               static_cast<double>(model_cycles);
        dram_.recordDemand(h.localTime,
                           static_cast<std::uint64_t>(
                               static_cast<double>(quantum_bytes) * stretch),
                           h.app);
    }
    clock.lap(Layer::Dram);

    energy_.addBusy(dt, peer, h.app);
    energy_.addLlcAccesses(llc_demand + prefetch_fills, h.app);
    energy_.addDramLines(dram_reads + dram_writes, h.app);
    energy_.addDramBytes(uncached_bytes, h.app);
    clock.lap(Layer::Energy);

    h.localTime += dt;
    const std::uint64_t llc_acc_counted = llc_demand + prefetch_fills;
    const std::uint64_t llc_miss_counted =
        llc_demand_miss + prefetch_dram_reads;
    a.retiredTotal += insts;
    a.cycles += cycles;
    a.llcAccesses += llc_acc_counted;
    a.llcMisses += llc_miss_counted;
    a.perf->record(h.localTime, insts, llc_acc_counted, llc_miss_counted);
    clock.lap(Layer::Perf);

    if (wl.done()) {
        if (a.continuous) {
            wl.restart();
        } else {
            h.idle = true;
            ++a.threadsDone;
            unsigned required = 0;
            for (const HwThreadId hw : a.hts) {
                if (hts_[hw].workload->totalWork() > 0)
                    ++required;
            }
            if (a.threadsDone >= required && !a.completed) {
                a.completed = true;
                a.completionTime = h.localTime;
            }
        }
    }
    clock.lap(Layer::Sched);

    ++st.quanta;
    st.insts += insts;
    st.accesses += accessRing_.size();
    st.cached += q.l1Hits + q.l2Hits + q.llcHits + q.llcMisses;
    st.l1Hits += q.l1Hits;
    st.l2Hits += q.l2Hits;
    st.llcHits += q.llcHits;
    st.llcMisses += q.llcMisses;
    st.dramLines += dram_reads + dram_writes;
    st.prefetchRequests += requests;
    sampledRequests_ = requests;
}

void
ReplayMachine::retime(ReplayStats &st)
{
    std::uint64_t issued = 0;
    std::size_t k = 0;
    const Clock::time_point t0 = Clock::now();
    for (const MemAccess &acc : accessRing_) {
        if (acc.uncached)
            continue;
        prefetchBuf_.clear();
        snapshot_.observe(acc.pc, lineAddr(acc.addr), missed_[k++],
                          prefetchBuf_);
        issued += prefetchBuf_.size();
    }
    st.retimeNs += nsBetween(t0, Clock::now());
    st.retimeAccesses += k;
    st.retimeMatched = st.retimeMatched && issued == sampledRequests_;
}

RunDigest
ReplayMachine::digest(bool timed_out) const
{
    RunDigest d;
    d.timedOut = timed_out;
    Seconds makespan = 0.0;
    for (const AppState &a : apps_) {
        d.completion.push_back(a.completionTime);
        d.retired.push_back(a.retiredTotal);
        if (!a.continuous && a.completed)
            makespan = std::max(makespan, a.completionTime);
    }
    if (timed_out)
        makespan = std::max(makespan, cfg_.maxSimTime);
    d.socketEnergy = energy_.socketEnergy(makespan);
    return d;
}

/** The simulator's own run of @p mix (shared LLC, no controller). */
RunDigest
simulatorRun(const exec::ExperimentSpec &spec, const Mix &mix)
{
    RunDigest d;
    const auto add = [&d](const AppRunStats &s) {
        d.completion.push_back(s.completionTime);
        d.retired.push_back(s.retired);
    };
    if (mix.apps.size() == 1) {
        SoloOptions o;
        o.threads = mix.apps[0].threads;
        o.ways = mix.apps[0].mask.empty() ? mix.cfg.hierarchy.llc.ways
                                          : mix.apps[0].mask.count();
        o.scale = mix.scale;
        o.system = mix.cfg;
        const SoloResult r = runSolo(mix.apps[0].params, o);
        add(r.app);
        d.socketEnergy = r.socketEnergy;
        d.timedOut = r.timedOut;
    } else if (spec.kind != exec::SpecKind::NApp) {
        PairOptions o;
        o.fgThreads = mix.apps[0].threads;
        o.bgThreads = mix.apps[1].threads;
        o.fgMask = mix.apps[0].mask;
        o.bgMask = mix.apps[1].mask;
        o.bgContinuous = mix.apps[1].continuous;
        o.scale = mix.scale;
        o.system = mix.cfg;
        const PairResult r =
            runPair(mix.apps[0].params, mix.apps[1].params, o);
        add(r.fg);
        add(r.bg);
        d.socketEnergy = r.socketEnergy;
        d.timedOut = r.timedOut;
    } else {
        std::vector<NAppMember> members;
        for (const MixApp &a : mix.apps)
            members.push_back(NAppMember{a.params, a.threads, a.continuous});
        NAppOptions o;
        o.system = mix.cfg;
        o.scale = mix.scale;
        const NAppRunResult r = runNApp(members, NPolicy::Shared, o);
        for (const AppRunStats &s : r.apps)
            add(s);
        d.socketEnergy = r.socketEnergy;
        d.timedOut = r.timedOut;
    }
    return d;
}

/** Indices of the points the replay visits: evenly spaced, ends kept. */
std::vector<std::size_t>
replayPoints(std::size_t n)
{
    const std::size_t m = std::min(kReplayPoints, n);
    std::vector<std::size_t> picks;
    for (std::size_t k = 0; k < m; ++k)
        picks.push_back(m == 1 ? 0 : k * (n - 1) / (m - 1));
    return picks;
}

const char *
layerName(Layer l)
{
    static const char *const names[kNumLayers] = {
        "sched_ns", "workload_ns", "mem_ns",    "dram_ns",
        "interconnect_ns", "cpu_ns", "energy_ns", "perf_ns"};
    return names[static_cast<std::size_t>(l)];
}

} // namespace

ReplayStats
runReplay(const Workload &w, std::uint64_t seed, std::uint64_t quanta,
          SpanRecorder &rec)
{
    ReplayStats st;
    ScopedSpan all(rec, "replay");
    const std::vector<std::size_t> picks = replayPoints(w.specs.size());
    for (std::size_t k = 0; k < picks.size(); ++k) {
        ScopedSpan span(rec, "replay.mix");
        span.arg("point", static_cast<double>(picks[k]));
        const ReplayStats before = st;
        ReplayMachine m(mixOf(w.specs[picks[k]], seed), true);
        LayerClock clock(st.ns);
        const std::uint64_t n = quanta / picks.size();
        for (std::uint64_t i = 0; i < n; ++i) {
            clock.start();
            const std::optional<HwThreadId> next = m.pickNext();
            clock.lap(Layer::Sched);
            capart_assert(next.has_value());
            const bool sample = i % kRetimeEvery == 0;
            m.step(*next, clock, st, sample);
            if (sample)
                m.retime(st);
        }
        span.arg("quanta", static_cast<double>(st.quanta - before.quanta));
        span.arg("accesses",
                 static_cast<double>(st.accesses - before.accesses));
        for (std::size_t l = 0; l < kNumLayers; ++l)
            span.arg(layerName(static_cast<Layer>(l)),
                     static_cast<double>(st.ns[l] - before.ns[l]));
    }
    return st;
}

std::string
checkReplayFidelity(const Workload &w, std::uint64_t seed)
{
    const exec::ExperimentSpec &spec = w.specs.front();
    const Mix mix = mixOf(spec, seed);
    ReplayMachine m(mix, false);
    ReplayStats scratch;
    LayerClock clock(scratch.ns);
    bool timed_out = false;
    while (!m.primariesDone()) {
        const std::optional<HwThreadId> next = m.pickNext();
        if (!next)
            break;
        if (m.localTime(*next) > m.config().maxSimTime) {
            timed_out = true;
            break;
        }
        clock.start();
        m.step(*next, clock, scratch, false);
    }
    const RunDigest replay = m.digest(timed_out);
    const RunDigest sim = simulatorRun(spec, mix);
    std::ostringstream why;
    if (replay.completion != sim.completion)
        why << "completion times differ; ";
    if (replay.retired != sim.retired)
        why << "retired instructions differ; ";
    if (replay.socketEnergy != sim.socketEnergy)
        why << "socket energy differs; ";
    if (replay.timedOut != sim.timedOut)
        why << "time-out flags differ; ";
    return why.str();
}

double
systemBuildUs(const Workload &w, std::uint64_t seed)
{
    const Mix mix = mixOf(w.specs.front(), seed);
    std::vector<AppParams> scaled;
    for (const MixApp &a : mix.apps)
        scaled.push_back(a.params.scaled(mix.scale));
    std::vector<double> us;
    for (int i = 0; i < kBuildSamples; ++i) {
        const Clock::time_point t0 = Clock::now();
        System sys(mix.cfg);
        unsigned core = 0;
        for (std::size_t a = 0; a < mix.apps.size(); ++a) {
            const AppId id = sys.addAppThreads(scaled[a], core,
                                               mix.apps[a].threads,
                                               mix.apps[a].continuous);
            if (!mix.apps[a].mask.empty())
                sys.setWayMask(id, mix.apps[a].mask);
            core += (mix.apps[a].threads + mix.cfg.htsPerCore - 1) /
                    mix.cfg.htsPerCore;
        }
        us.push_back(static_cast<double>(nsBetween(t0, Clock::now())) /
                     1e3);
    }
    std::nth_element(us.begin(), us.begin() + us.size() / 2, us.end());
    return us[us.size() / 2];
}

} // namespace capart::harness
