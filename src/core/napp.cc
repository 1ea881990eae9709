#include "core/napp.hh"

#include <algorithm>
#include <limits>
#include <memory>

#include "analysis/mrc.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "core/npartition_journal.hh"
#include "core/ucp.hh"
#include "obs/timeseries.hh"
#include "obs/trace.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "stats/fairness.hh"
#include "workload/generator.hh"

namespace capart
{
namespace
{

/** Slowdown above which an app counts as an SLO breach. */
constexpr double kSloSlowdown = 1.10;

/**
 * Drives a @ref Partitioner online: folds each app's perf windows into
 * its observation and re-decides on every foreground window,
 * installing only the masks that actually changed.
 */
class NAppController final : public PartitionController
{
  public:
    /**
     * @p lfoc is @p part downcast when the policy carries bounce
     * state (null otherwise); @p first_seq continues the decision
     * ordinal sequence started by runNApp's up-front decision.
     */
    NAppController(Partitioner *part, LfocPartitioner *lfoc,
                   NPolicy policy, std::vector<AppObservation> obs,
                   std::vector<WayMask> current, std::uint64_t first_seq)
        : part_(part), lfoc_(lfoc), policy_(policy), obs_(std::move(obs)),
          current_(std::move(current)),
          seen_(obs_.size(), false), seq_(first_seq)
    {
    }

    void
    onWindow(System &sys, AppId app, const PerfWindow &w) override
    {
        if (app < obs_.size() && w.insts > 0) {
            AppObservation &o = obs_[app];
            if (seen_[app]) {
                o.mpki = kMpkiSmoothing * w.mpki +
                         (1.0 - kMpkiSmoothing) * o.mpki;
                o.apki = kMpkiSmoothing * w.apki +
                         (1.0 - kMpkiSmoothing) * o.apki;
            } else {
                o.mpki = w.mpki;
                o.apki = w.apki;
                seen_[app] = true;
            }
        }
        if (app != 0)
            return;
        // Snapshot the complete decision inputs *before* decide()
        // mutates the policy's carried state; recording never feeds
        // back into the decision, so results stay bit-identical with
        // observability on.
        const bool rec = obs::enabled();
        NPartitionInputs jin;
        if (rec) {
            jin.policy = policy_;
            jin.totalWays = sys.llcWays();
            jin.apps = obs_;
            if (lfoc_)
                jin.lfocErrBefore = lfoc_->bounceError();
        }
        std::vector<WayMask> masks;
        {
            obs::TraceSpan span("napp.decide", "partition");
            masks = part_->decide(obs_, sys.llcWays());
        }
        if (rec) {
            NPartitionDecision jout;
            jout.masks = masks;
            if (lfoc_) {
                jout.classes = lfoc_->lastClasses();
                jout.targets = lfoc_->lastTargets();
                jout.errAfter = lfoc_->bounceError();
            }
            journalNPartitionDecision(sys.now() * 1e6, jin, jout,
                                      seq_++, true);
        }
        for (std::size_t i = 0; i < masks.size(); ++i) {
            if (masks[i] == current_[i])
                continue;
            sys.setWayMask(obs_[i].id, masks[i]);
            current_[i] = masks[i];
            ++remasks_;
        }
    }

    std::uint64_t remasks() const { return remasks_; }

  private:
    Partitioner *part_;
    LfocPartitioner *lfoc_;
    NPolicy policy_;
    std::vector<AppObservation> obs_;
    std::vector<WayMask> current_;
    std::vector<bool> seen_;
    std::uint64_t remasks_ = 0;
    std::uint64_t seq_ = 0;
};

} // namespace

SystemConfig
nAppSystem(unsigned num_cores, unsigned llc_ways, std::uint64_t seed)
{
    capart_assert(num_cores >= 1 && llc_ways >= 2 && llc_ways <= 32);
    SystemConfig cfg;
    cfg.numCores = num_cores;
    cfg.seed = seed;
    // 128 KiB per way: 2048 sets at any associativity (power of two,
    // as the set-index mapping requires). Smaller than the paper's
    // 0.5 MB/way because N-app studies run the catalog at bench scales
    // (~0.04) — at 512 KiB/way every scaled working set fits in one
    // way and all miss curves go flat, erasing the very sensitivity
    // the UCP/LFOC policies exist to exploit.
    cfg.hierarchy.llc.sizeBytes = static_cast<std::uint64_t>(llc_ways) *
                                  kib(128);
    cfg.hierarchy.llc.ways = llc_ways;
    cfg.hierarchy.llc.partitionSlots = 64;
    return cfg;
}

MissCurve
profileMissCurve(const AppParams &params, const SystemConfig &system,
                 double scale, std::uint64_t max_accesses)
{
    // One representative thread of the (scaled) app replayed into the
    // exact LRU profiler. The seed is a fixed function of the system
    // seed only, so one app's curve does not depend on which slot of
    // which mix it appears in.
    const AppParams scaled = params.scaled(scale);
    ThreadWorkload thread(scaled, 0, 1, kAppAddressStride,
                          system.seed ^ 0x4e417070ULL /* "NApp" */);
    StackDistanceProfiler prof;
    std::vector<MemAccess> buf;
    Insts insts = 0;
    const Insts total_work = thread.totalWork();
    while (!thread.done() && prof.accesses() < max_accesses) {
        buf.clear();
        const double progress =
            total_work > 0
                ? static_cast<double>(thread.retired()) / total_work
                : 1.0;
        const Insts got =
            thread.runQuantum(system.quantumInsts, progress, buf);
        if (got == 0)
            break;
        insts += got;
        for (const MemAccess &a : buf) {
            if (!a.uncached)
                prof.access(a.addr / kLineBytes);
        }
    }

    MissCurve mc;
    mc.accesses = prof.accesses();
    mc.apki = insts > 0 ? 1000.0 * static_cast<double>(prof.accesses()) /
                              static_cast<double>(insts)
                        : 0.0;
    const std::uint64_t sets = system.hierarchy.llc.sets();
    const unsigned ways = system.hierarchy.llc.ways;
    std::vector<std::uint64_t> capacities;
    capacities.reserve(ways + 1);
    for (unsigned w = 0; w <= ways; ++w)
        capacities.push_back(static_cast<std::uint64_t>(w) * sets);
    const std::vector<double> ratios = prof.missRatios(capacities);
    mc.mpkiAtWays.reserve(ratios.size());
    for (const double r : ratios)
        mc.mpkiAtWays.push_back(r * mc.apki);
    return mc;
}

namespace
{

bool
usesMissCurves(NPolicy policy)
{
    return policy == NPolicy::Ucp || policy == NPolicy::Lfoc;
}

/** Every member's miss curve, in member order. */
std::vector<MissCurve>
profileMembers(const std::vector<NAppMember> &members,
               const NAppOptions &opts)
{
    std::vector<MissCurve> curves;
    curves.reserve(members.size());
    for (const NAppMember &m : members)
        curves.push_back(profileMissCurve(m.params, opts.system,
                                          opts.scale,
                                          opts.profileAccesses));
    return curves;
}

/** runNApp over already-profiled @p curves (read by UCP and LFOC). */
NAppRunResult
runWithCurves(const std::vector<NAppMember> &members, NPolicy policy,
              const NAppOptions &opts, const std::vector<MissCurve> &curves)
{
    capart_assert(!members.empty());
    const SystemConfig &cfg = opts.system;
    System sys(cfg);
    const unsigned total = sys.llcWays();

    // Pinning: disjoint whole cores in member order, both hyperthreads
    // of a core filled first — exactly runPair's discipline at N = 2.
    std::vector<AppId> ids;
    ids.reserve(members.size());
    unsigned core = 0;
    for (const NAppMember &m : members) {
        capart_assert(m.threads >= 1);
        ids.push_back(sys.addAppThreads(m.params.scaled(opts.scale), core,
                                        m.threads, m.continuous));
        core += (m.threads + cfg.htsPerCore - 1) / cfg.htsPerCore;
    }
    capart_assert(core <= cfg.numCores);

    std::vector<AppObservation> obs(members.size());
    const bool need_curves = usesMissCurves(policy);
    capart_assert(!need_curves || curves.size() == members.size());
    for (std::size_t i = 0; i < members.size(); ++i) {
        obs[i].id = ids[i];
        obs[i].latencySensitive = !members[i].continuous;
        if (!need_curves)
            continue;
        const MissCurve &mc = curves[i];
        obs[i].missCurve = mc.mpkiAtWays;
        obs[i].apki = mc.apki;
        // Pre-run MPKI estimate: the curve read at a fair share of the
        // ways (the controller replaces it with measured windows).
        const unsigned share = std::max<unsigned>(
            1, total / static_cast<unsigned>(members.size()));
        obs[i].mpki = obs[i].curveAt(std::min(share, total));
    }

    std::unique_ptr<Partitioner> part;
    std::unique_ptr<DynamicPartitioner> dyn;
    std::vector<WayMask> masks;
    switch (policy) {
      case NPolicy::Shared:
        part = std::make_unique<SharedPartitioner>();
        break;
      case NPolicy::Fair:
        part = std::make_unique<FairPartitioner>();
        break;
      case NPolicy::Biased:
        part = std::make_unique<BiasedPartitioner>(
            opts.biasedFgWays > 0 ? opts.biasedFgWays : total / 2);
        break;
      case NPolicy::Ucp:
        part = std::make_unique<UcpPartitioner>();
        break;
      case NPolicy::Lfoc:
        part = std::make_unique<LfocPartitioner>();
        break;
      case NPolicy::Dynamic: {
        // The controller's starting allocation — its probe ceiling, the
        // paper's 11 of 12 ways generalized — installed statically so a
        // run with no windows still has the paper's initial split.
        const unsigned max_fg = total - 1;
        masks.push_back(WayMask::range(0, max_fg));
        for (std::size_t i = 1; i < members.size(); ++i)
            masks.push_back(WayMask::range(max_fg, total - max_fg));
        if (members.size() > 1) {
            dyn = std::make_unique<DynamicPartitioner>(
                ids[0], std::vector<AppId>(ids.begin() + 1, ids.end()));
        }
        break;
      }
    }
    const bool rec = obs::enabled();
    journalRunStart(npolicyName(policy), members.size(), total);
    std::uint64_t seq = 0;
    if (part) {
        NPartitionInputs jin;
        if (rec) {
            jin.policy = policy;
            jin.totalWays = total;
            jin.apps = obs;
            if (policy == NPolicy::Biased)
                jin.biasedFgWays =
                    opts.biasedFgWays > 0 ? opts.biasedFgWays
                                          : total / 2;
            // A fresh LFOC carries no bounce state yet, so
            // lfocErrBefore stays empty.
        }
        {
            obs::TraceSpan span("napp.decide", "partition");
            masks = part->decide(obs, total);
        }
        if (rec) {
            NPartitionDecision jout;
            jout.masks = masks;
            if (policy == NPolicy::Lfoc) {
                auto *lp = static_cast<LfocPartitioner *>(part.get());
                jout.classes = lp->lastClasses();
                jout.targets = lp->lastTargets();
                jout.errAfter = lp->bounceError();
            }
            journalNPartitionDecision(0.0, jin, jout, seq++, true);
        }
    } else if (rec && !masks.empty()) {
        // Dynamic: journal the initial static split so every policy's
        // starting allocation is replayable; the per-window control
        // decisions go through the Algorithm 6.2 decision journal.
        NPartitionInputs jin;
        jin.policy = policy;
        jin.totalWays = total;
        jin.apps = obs;
        jin.dynMaxFgWays = masks.front().count();
        NPartitionDecision jout;
        jout.masks = masks;
        journalNPartitionDecision(0.0, jin, jout, seq++, true);
    }
    capart_assert(masks.size() == members.size());

    // Installing an all-ways mask is a state no-op (the default), so
    // skip it — keeps the Shared path identical to the legacy runPair
    // call sequence, which never touches the mask registers.
    const WayMask everything = WayMask::all(total);
    for (std::size_t i = 0; i < masks.size(); ++i) {
        if (!(masks[i] == everything))
            sys.setWayMask(ids[i], masks[i]);
    }

    std::unique_ptr<NAppController> ctrl;
    if (dyn) {
        sys.setController(dyn.get());
    } else if (policy == NPolicy::Lfoc) {
        ctrl = std::make_unique<NAppController>(
            part.get(), static_cast<LfocPartitioner *>(part.get()),
            policy, obs, masks, seq);
        sys.setController(ctrl.get());
    }

    const RunResult run = sys.run();
    NAppRunResult res;
    res.policy = policy;
    res.apps.reserve(ids.size());
    for (const AppId id : ids)
        res.apps.push_back(run.app(id));
    res.fgTime = res.apps.front().completionTime;
    res.socketEnergy = run.socketEnergy;
    res.wallEnergy = run.wallEnergy;
    res.timedOut = run.timedOut;
    if (dyn)
        res.remasks = dyn->reallocations();
    else if (ctrl)
        res.remasks = ctrl->remasks();
    if (policy == NPolicy::Lfoc)
        res.lfocClasses =
            static_cast<LfocPartitioner *>(part.get())->lastClasses();
    return res;
}

} // namespace

NAppRunResult
runNApp(const std::vector<NAppMember> &members, NPolicy policy,
        const NAppOptions &opts)
{
    return runWithCurves(members, policy, opts,
                         usesMissCurves(policy)
                             ? profileMembers(members, opts)
                             : std::vector<MissCurve>{});
}

NAppStudy::NAppStudy(std::vector<NAppMember> members,
                     NAppStudyOptions opts)
    : members_(std::move(members)), opts_(std::move(opts)),
      soloIps_(members_.size())
{
    capart_assert(!members_.empty());
}

double
NAppStudy::soloIps(std::size_t i)
{
    capart_assert(i < members_.size());
    if (!soloIps_[i]) {
        journalRunStart("solo", members_.size(),
                        opts_.run.system.hierarchy.llc.ways,
                        {{"app", static_cast<double>(i)}});
        SoloOptions solo;
        solo.threads = members_[i].threads;
        solo.ways = opts_.run.system.hierarchy.llc.ways;
        solo.scale = opts_.run.scale;
        solo.system = opts_.run.system;
        const SoloResult r = runSolo(members_[i].params, solo);
        capart_assert(r.app.throughputIps > 0.0);
        soloIps_[i] = r.app.throughputIps;
    }
    return *soloIps_[i];
}

const NAppRunResult &
NAppStudy::runPolicy(NPolicy policy)
{
    const auto it = runs_.find(policy);
    if (it != runs_.end())
        return it->second;
    if (usesMissCurves(policy) && curves_.empty())
        curves_ = profileMembers(members_, opts_.run);
    return runs_
        .emplace(policy,
                 runWithCurves(members_, policy, opts_.run, curves_))
        .first->second;
}

NAppPolicySummary
NAppStudy::summarize(NPolicy policy)
{
    const NAppRunResult &run = runPolicy(policy);
    NAppPolicySummary s;
    s.policy = policy;
    s.timedOut = run.timedOut;
    s.remasks = run.remasks;
    s.socketEnergyJ = run.socketEnergy;
    s.wallEnergyJ = run.wallEnergy;

    std::vector<double> slowdowns;
    slowdowns.reserve(members_.size());
    for (std::size_t i = 0; i < members_.size(); ++i) {
        const double corun = run.apps[i].throughputIps;
        capart_assert(corun > 0.0);
        s.throughputIps += corun;
        slowdowns.push_back(soloIps(i) / corun);
    }
    s.stp = systemThroughput(slowdowns);
    s.unfairness = unfairness(slowdowns);
    s.worstSlowdown =
        *std::max_element(slowdowns.begin(), slowdowns.end());
    s.fgSlowdown = slowdowns.front();
    for (const double sd : slowdowns) {
        if (sd > kSloSlowdown)
            ++s.sloBreaches;
    }
    return s;
}

} // namespace capart
