#include "sim/system.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"

namespace capart
{

System::System(const SystemConfig &cfg)
    : cfg_(cfg),
      hierarchy_(std::make_unique<CacheHierarchy>(cfg.hierarchy,
                                                  cfg.numCores, cfg.seed)),
      dram_(std::make_unique<DramModel>(cfg.dram)),
      ring_(std::make_unique<RingInterconnect>(cfg.ring)),
      timing_(cfg.cpu),
      energy_(cfg.energy)
{
    capart_assert(cfg.numCores >= 1);
    capart_assert(cfg.htsPerCore >= 1);
    capart_assert(cfg.quantumInsts >= 1);
    latencies_.l1 = cfg.hierarchy.l1Latency;
    latencies_.l2 = cfg.hierarchy.l2Latency;
    latencies_.llc = cfg.hierarchy.llcLatency;
    prefetchers_.assign(cfg.numCores, PrefetcherBank(cfg.prefetch));
    hts_.resize(cfg.numHts());
    prefetchBuf_.reserve(16);
}

AppId
System::addApp(const AppParams &params, const std::vector<HwThreadId> &hts,
               bool continuous)
{
    capart_assert(!ran_);
    capart_assert(!hts.empty());
    const unsigned slots = cfg_.hierarchy.llc.partitionSlots
                               ? cfg_.hierarchy.llc.partitionSlots
                               : 1;
    if (apps_.size() >= slots)
        capart_fatal("more apps than LLC partition slots");

    const AppId id = static_cast<AppId>(apps_.size());
    AppState app;
    app.params = params;
    app.params.validate();
    app.continuous = continuous;
    app.hts = hts;
    app.perf = std::make_unique<PerfMonitor>(cfg_.perfWindow);

    const auto num_threads = static_cast<unsigned>(hts.size());
    const Addr base = kAppAddressStride * (static_cast<Addr>(id) + 1);
    for (unsigned t = 0; t < num_threads; ++t) {
        const HwThreadId ht = hts[t];
        capart_assert(ht < hts_.size());
        capart_assert(hts_[ht].app == kNoApp);
        hts_[ht].app = id;
        hts_[ht].workload = std::make_unique<ThreadWorkload>(
            app.params, t, num_threads, base,
            cfg_.seed ^ (0x1234567ULL * (id + 1)) ^ (t * 0x9e37ULL));
        app.iterationWork += hts_[ht].workload->totalWork();
    }
    apps_.push_back(std::move(app));
    return id;
}

AppId
System::addAppOnCores(const AppParams &params, unsigned first_core,
                      unsigned num_cores, bool continuous)
{
    return addAppThreads(params, first_core, num_cores * cfg_.htsPerCore,
                         continuous);
}

AppId
System::addAppThreads(const AppParams &params, unsigned first_core,
                      unsigned num_threads, bool continuous)
{
    // Fill both hyperthreads of one core before moving to the next
    // (the paper's allocation order, §3.1).
    std::vector<HwThreadId> hts;
    for (unsigned i = 0; i < num_threads; ++i)
        hts.push_back(first_core * cfg_.htsPerCore + i);
    return addApp(params, hts, continuous);
}

void
System::setWayMask(AppId app, WayMask mask)
{
    capart_assert(app < apps_.size());
    hierarchy_->setLlcPartition(app, mask);
}

WayMask
System::wayMask(AppId app) const
{
    capart_assert(app < apps_.size());
    return hierarchy_->llcPartition(app);
}

void
System::setWindowFaultHook(AppId app, WindowFaultHook *hook)
{
    capart_assert(app < apps_.size());
    apps_[app].perf->setFaultHook(hook, app);
}

const PerfMonitor &
System::monitor(AppId app) const
{
    capart_assert(app < apps_.size());
    return *apps_[app].perf;
}

HwThreadId
System::siblingOf(HwThreadId ht) const
{
    const HwThreadId base = (ht / cfg_.htsPerCore) * cfg_.htsPerCore;
    // Two hyperthreads per core on this platform; with more, "sibling
    // active" means any other hyperthread of the core is active.
    return (ht == base) ? base + 1 : base;
}

bool
System::siblingActive(HwThreadId ht) const
{
    if (cfg_.htsPerCore < 2)
        return false;
    const HwThreadId sib = siblingOf(ht);
    if (sib >= hts_.size())
        return false;
    return !hts_[sib].idle;
}

std::optional<HwThreadId>
System::pickNext() const
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

void
System::deliverWindows()
{
    if (!controller_)
        return;
    for (AppId id = 0; id < apps_.size(); ++id) {
        AppState &a = apps_[id];
        const auto &windows = a.perf->windows();
        while (a.windowsSeen < windows.size()) {
            controller_->onWindow(*this, id, windows[a.windowsSeen]);
            ++a.windowsSeen;
            if (obs::enabled()) {
                static obs::Counter &delivered =
                    obs::metrics().counter("sim.windows_delivered");
                delivered.inc();
            }
        }
    }
}

void
System::stepHt(HwThreadId ht)
{
    HtState &h = hts_[ht];
    AppState &a = apps_[h.app];
    ThreadWorkload &wl = *h.workload;
    const CoreId core = coreOf(ht);

    const double progress =
        wl.totalWork()
            ? std::min(1.0, static_cast<double>(wl.retired()) /
                                static_cast<double>(wl.totalWork()))
            : 1.0;

    accessRing_.clear();
    const Insts insts =
        wl.runQuantum(cfg_.quantumInsts, progress, accessRing_);
    capart_assert(insts > 0);

    if (obs::enabled()) {
        static obs::Counter &quanta = obs::metrics().counter("sim.quanta");
        quanta.inc();
    }

    QuantumCounts q;
    q.insts = insts;
    std::uint64_t llc_demand = 0;
    std::uint64_t llc_demand_miss = 0;
    std::uint64_t dram_reads = 0;
    std::uint64_t dram_writes = 0;
    std::uint64_t uncached_bytes = 0;
    std::uint64_t prefetch_fills = 0;
    std::uint64_t prefetch_dram_reads = 0;

    // Drain the quantum's block. The replay order — each access, then
    // the prefetches it triggered, then the next access — must match
    // the incremental path exactly: fills perturb replacement state.
    PrefetcherBank &pf = prefetchers_[core];
    for (const MemAccess &acc : accessRing_) {
        if (acc.uncached) {
            // Non-temporal accesses bypass every cache and overlap
            // deeply in the write-combining buffers; their cost is pure
            // bandwidth, applied by the throughput bound below.
            uncached_bytes += kLineBytes;
            dram_->recordUncached(h.localTime, kLineBytes, h.app);
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
        pf.observe(acc.pc, lineAddr(acc.addr),
                   out.servedBy != ServiceLevel::L1, prefetchBuf_);
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

    // Bandwidth available to this app's flow, judged before this
    // quantum's own traffic is posted (competitors + own recent past).
    // The flow's share is split across the app's running threads: they
    // execute concurrently, so each quantum may claim only its part.
    const std::uint64_t quantum_bytes =
        (dram_reads + dram_writes) * kLineBytes + uncached_bytes;
    unsigned active_threads = 0;
    for (const HwThreadId hw : a.hts)
        active_threads += !hts_[hw].idle;
    if (active_threads == 0)
        active_threads = 1;
    const double avail_bw =
        dram_->availableFor(h.localTime, h.app) / active_threads;

    // Shared-resource feedback under the load present right now.
    if (dram_reads) {
        dram_->recordRead(h.localTime, static_cast<unsigned>(dram_reads),
                          h.app);
    }
    if (dram_writes) {
        dram_->recordWrite(h.localTime,
                           static_cast<unsigned>(dram_writes), h.app);
    }
    const std::uint64_t ring_bytes =
        (llc_demand + prefetch_fills + dram_reads + dram_writes) *
            kLineBytes +
        uncached_bytes;
    if (ring_bytes)
        ring_->domain().record(h.localTime, ring_bytes);

    q.memLatency = dram_->effectiveLatency(h.localTime);
    q.ringExtra = ring_->extraLatency(h.localTime);

    const bool peer = siblingActive(ht);
    // The breakdown's terms sum (in declaration order) to the exact
    // cycles quantumCycles() would return — attribution reuses the
    // timing computation instead of re-deriving it.
    const StallBreakdown stalls = timing_.quantumBreakdown(
        q, a.params.baseIpc, wl.effectiveMlp(progress), peer, latencies_);
    const Cycles model_cycles = CoreTimingModel::totalCycles(stalls);
    Cycles cycles = model_cycles;
    if (sliceFaults_) {
        // An injected stall stretches the quantum: the thread holds the
        // core without retiring faster, like a page fault or an SMI.
        const double stall =
            sliceFaults_->quantumStallFactor(h.app, h.slices);
        if (stall > 1.0)
            cycles = static_cast<Cycles>(static_cast<double>(cycles) *
                                         stall);
    }
    ++h.slices;
    if (quantum_bytes) {
        // A quantum cannot move data faster than the DRAM bandwidth its
        // flow can claim; prefetch-covered streams are bound here.
        const Seconds bw_time =
            static_cast<double>(quantum_bytes) / avail_bw;
        const auto bw_cycles = static_cast<Cycles>(
            bw_time * timing_.config().freqHz);
        cycles = std::max(cycles, bw_cycles);
    }
    const Seconds dt = timing_.cyclesToSeconds(cycles);

    if (quantum_bytes) {
        // Post this flow's *demand*: the rate it would move data at if
        // the pins were unloaded. Weighted by the stretched quantum so
        // the windowed average equals bytes / unthrottled-time.
        const double stretch = static_cast<double>(cycles) /
                               static_cast<double>(model_cycles);
        dram_->recordDemand(
            h.localTime,
            static_cast<std::uint64_t>(
                static_cast<double>(quantum_bytes) * stretch),
            h.app);
    }

    energy_.addBusy(dt, peer, h.app);
    energy_.addLlcAccesses(llc_demand + prefetch_fills, h.app);
    energy_.addDramLines(dram_reads + dram_writes, h.app);
    energy_.addDramBytes(uncached_bytes, h.app);

    if (obs::enabled()) {
        // Split the quantum's integer cycles across the stall buckets
        // by truncating the breakdown's running prefix sums: the five
        // buckets always sum to exactly the cycles charged, and each
        // bucket is within one cycle of its fractional share.
        const auto c0 = static_cast<Cycles>(stalls.base);
        const auto c1 = static_cast<Cycles>(stalls.base + stalls.l2);
        const auto c2 =
            static_cast<Cycles>((stalls.base + stalls.l2) + stalls.llc);
        a.stallCompute += c0;
        a.stallL2 += c1 - c0;
        a.stallLlc += c2 - c1;
        a.stallDram += model_cycles - c2;
        // Everything beyond the core model: bandwidth throttling and
        // injected stalls, i.e. time spent queueing for shared pins.
        a.stallQueue += cycles - model_cycles;
    }

    h.localTime += dt;
    now_ = h.localTime;

    // LLC counters follow the hardware events the paper reads via
    // libpfm: LONGEST_LAT_CACHE.{REFERENCE,MISS} count demand *and*
    // prefetch traffic at the LLC.
    const std::uint64_t llc_acc_counted = llc_demand + prefetch_fills;
    const std::uint64_t llc_miss_counted =
        llc_demand_miss + prefetch_dram_reads;
    a.retiredTotal += insts;
    a.cycles += cycles;
    a.llcAccesses += llc_acc_counted;
    a.llcMisses += llc_miss_counted;
    a.dramReads += dram_reads;
    a.dramWrites += dram_writes;
    a.uncachedBytes += uncached_bytes;
    a.perf->record(h.localTime, insts, llc_acc_counted, llc_miss_counted);

    ++quanta_;
    if (obs::enabled()) {
        const std::uint64_t period = obs::timeseries().period();
        if (period && quanta_ % period == 0)
            recordAttributionSample();
    }

    if (wl.done()) {
        if (a.continuous) {
            if (wl.threadIdx() == 0)
                ++a.iterations;
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
}

void
System::recordAttributionSample()
{
    obs::AttributionSample s;
    s.tUs = now_ * 1e6;
    s.quantum = quanta_;
    const SetAssocCache &llc = hierarchy_->llc();
    s.llcSets = llc.sets();
    s.llcWays = cfg_.hierarchy.llc.ways;

    s.owners.resize(apps_.size());
    // One read-only tag walk attributes every resident line to the app
    // whose 1 TB address window it falls in.
    llc.forEachResident([&](Addr line, unsigned) {
        ++s.llcResidentLines;
        const AppId owner = appOfLine(line);
        if (owner != kNoApp && owner < s.owners.size())
            ++s.owners[owner].residentLines;
    });

    s.socketDynamicJ = energy_.dynamicSocketEnergy();
    s.dramJ = energy_.dramTransferEnergy();

    const unsigned chans = dram_->channels();
    const double sets = static_cast<double>(s.llcSets);
    for (AppId id = 0; id < apps_.size(); ++id) {
        obs::OwnerSample &o = s.owners[id];
        const AppState &a = apps_[id];
        o.owner = id;
        o.occupancyWays =
            sets > 0.0 ? static_cast<double>(o.residentLines) / sets : 0.0;
        o.wayMaskBits = hierarchy_->llcPartition(id).bits();
        o.retired = a.retiredTotal;
        o.cycles = a.cycles;
        o.stallCompute = a.stallCompute;
        o.stallL2 = a.stallL2;
        o.stallLlc = a.stallLlc;
        o.stallDram = a.stallDram;
        o.stallQueue = a.stallQueue;
        const OwnerEnergy e = energy_.ownerEnergy(id);
        o.busyJ = e.busyJ;
        o.llcJ = e.llcJ;
        o.dramJ = e.dramJ;
        o.channelBytes.resize(chans);
        for (unsigned c = 0; c < chans; ++c)
            o.channelBytes[c] = dram_->channelBytes(id, c);
    }
    obs::timeseries().record(std::move(s));
}

RunResult
System::run()
{
    capart_assert(!ran_);
    ran_ = true;
    capart_assert(!apps_.empty());
    obs::TraceSpan run_span("sim.run", "sim",
                            {{"apps", static_cast<double>(apps_.size())}});

    bool any_primary = false;
    for (const auto &a : apps_)
        any_primary = any_primary || !a.continuous;
    if (!any_primary)
        capart_fatal("no non-continuous application; run() would not end");

    // Threads whose work share is zero (beyond maxThreads) never run.
    for (auto &h : hts_) {
        if (h.app == kNoApp)
            continue;
        if (h.workload->totalWork() == 0)
            h.idle = true;
        else
            h.idle = false;
    }
    // Apps whose every thread has zero work complete instantly (cannot
    // happen with valid params; guard anyway).
    for (auto &a : apps_) {
        if (!a.continuous && a.iterationWork == 0) {
            a.completed = true;
            a.completionTime = 0.0;
        }
    }

    RunResult result;
    auto primaries_done = [&]() {
        for (const auto &a : apps_) {
            if (!a.continuous && !a.completed)
                return false;
        }
        return true;
    };

    while (!primaries_done()) {
        const std::optional<HwThreadId> next = pickNext();
        if (!next) {
            capart_warn("no runnable hardware thread but primaries "
                        "incomplete");
            break;
        }
        if (hts_[*next].localTime > cfg_.maxSimTime) {
            capart_warn("simulation hit maxSimTime safety stop");
            result.timedOut = true;
            break;
        }
        stepHt(*next);
        deliverWindows();
    }

    Seconds makespan = 0.0;
    for (const auto &a : apps_) {
        if (!a.continuous && a.completed)
            makespan = std::max(makespan, a.completionTime);
    }
    if (result.timedOut)
        makespan = std::max(makespan, cfg_.maxSimTime);
    result.makespan = makespan;

    for (const auto &a : apps_) {
        AppRunStats s;
        s.name = a.params.name;
        s.completed = a.completed;
        s.completionTime = a.completionTime;
        s.iterations = a.iterations;
        s.retired = a.retiredTotal;
        s.cycles = a.cycles;
        s.llcAccesses = a.llcAccesses;
        s.llcMisses = a.llcMisses;
        s.dramReads = a.dramReads;
        s.dramWrites = a.dramWrites;
        s.uncachedBytes = a.uncachedBytes;
        s.stallCompute = a.stallCompute;
        s.stallL2 = a.stallL2;
        s.stallLlc = a.stallLlc;
        s.stallDram = a.stallDram;
        s.stallQueue = a.stallQueue;
        s.throughputIps =
            makespan > 0.0
                ? static_cast<double>(a.retiredTotal) / makespan
                : 0.0;
        result.apps.push_back(std::move(s));
    }
    result.socketEnergy = energy_.socketEnergy(makespan);
    result.wallEnergy = energy_.wallEnergy(makespan);
    result.dramTotalBytes = dram_->totalBytes();
    return result;
}

} // namespace capart
