#include "core/co_scheduler.hh"

#include "common/logging.hh"
#include "stats/summary.hh"

namespace capart
{

CoScheduler::CoScheduler(const AppParams &fg, const AppParams &bg,
                         const CoScheduleOptions &opts)
    : fg_(fg), bg_(bg), opts_(opts)
{
    capart_assert(opts_.threadsEach >= 1);
}

PairOptions
CoScheduler::basePairOptions(bool bg_continuous) const
{
    PairOptions pair;
    pair.fgThreads = opts_.threadsEach;
    pair.bgThreads = opts_.threadsEach;
    pair.bgContinuous = bg_continuous;
    pair.scale = opts_.scale;
    pair.system = opts_.system;
    return pair;
}

SoloResult
CoScheduler::solo(unsigned app, unsigned threads) const
{
    journalRunStart("solo", 2, opts_.system.hierarchy.llc.ways,
                    {{"app", app}, {"threads", threads}});
    SoloOptions o;
    o.threads = threads;
    o.scale = opts_.scale;
    o.system = opts_.system;
    return runSolo(app == 0 ? fg_ : bg_, o);
}

const SoloResult &
CoScheduler::fgSoloHalf()
{
    if (!fgSoloHalf_)
        fgSoloHalf_ = solo(0, opts_.threadsEach);
    return *fgSoloHalf_;
}

const SoloResult &
CoScheduler::fgSoloFull()
{
    if (!fgSoloFull_)
        fgSoloFull_ = solo(0, opts_.system.numHts());
    return *fgSoloFull_;
}

const SoloResult &
CoScheduler::bgSoloFull()
{
    if (!bgSoloFull_)
        bgSoloFull_ = solo(1, opts_.system.numHts());
    return *bgSoloFull_;
}

const BiasedSearchResult &
CoScheduler::biased()
{
    if (!biased_)
        biased_ = findBiasedPartition(fg_, bg_, basePairOptions(true));
    return *biased_;
}

const PairResult &
CoScheduler::runPolicy(Policy policy, bool bg_continuous)
{
    const auto key = std::make_pair(policy, bg_continuous);
    const auto it = pairRuns_.find(key);
    if (it != pairRuns_.end())
        return it->second;

    PairOptions pair = basePairOptions(bg_continuous);
    const unsigned total = opts_.system.hierarchy.llc.ways;

    switch (policy) {
      case Policy::Shared:
        // Leave both masks at "all ways".
        break;
      case Policy::Fair: {
        const SplitMasks m = policyMasks(Policy::Fair, total);
        pair.fgMask = m.fg;
        pair.bgMask = m.bg;
        break;
      }
      case Policy::Biased: {
        const BiasedSearchResult &b = biased();
        pair.fgMask = b.masks.fg;
        pair.bgMask = b.masks.bg;
        break;
      }
      case Policy::Dynamic: {
        const SplitMasks m = policyMasks(Policy::Dynamic, total);
        pair.fgMask = m.fg;
        pair.bgMask = m.bg;
        dynCtrl_ = std::make_unique<DynamicPartitioner>(
            AppId{0}, std::vector<AppId>{1}, opts_.dynamic);
        pair.controller = dynCtrl_.get();
        break;
      }
    }

    // The search already ran the continuous biased split with these
    // options, so its winning run is that policy's run.
    const bool reuse = policy == Policy::Biased && bg_continuous;
    if (!reuse) {
        journalRunStart(policyName(policy), 2, total,
                        {{"fg_ways", pair.fgMask.empty()
                                         ? total
                                         : pair.fgMask.count()},
                         {"bg_continuous", bg_continuous}});
    }
    const PairResult &run =
        pairRuns_
            .emplace(key, reuse ? biased().run : runPair(fg_, bg_, pair))
            .first->second;
    if (opts_.monitorSlo && bg_continuous) {
        // The monitor only observes, so it evaluates the foreground's
        // windows once the run is over, each stamped with its end.
        sloMonitor_ = std::make_unique<SloMonitor>();
        sloMonitor_->setBaseline(fgSoloHalf().app.throughputIps);
        for (const PerfWindow &w : run.fgWindows)
            sloMonitor_->onWindow(w.end, w);
    }
    return run;
}

ConsolidationSummary
CoScheduler::summarize(Policy policy)
{
    ConsolidationSummary s;
    s.policy = policy;

    // Responsiveness and throughput: continuous background (§5.1, §6.4).
    const PairResult &cont = runPolicy(policy, true);
    const Seconds solo_half = fgSoloHalf().time;
    capart_assert(solo_half > 0.0);
    s.fgSlowdown = cont.fgTime / solo_half;
    s.bgThroughput = cont.bgThroughput;

    // Energy and weighted speedup: run each app once (Figs. 10, 11).
    const PairResult &once = runPolicy(policy, false);
    // Named in turn, so the solo baselines run (and journal) FG first.
    const SoloResult &fg_full = fgSoloFull();
    const SoloResult &bg_full = bgSoloFull();
    s.energyVsSequential =
        once.socketEnergy / (fg_full.socketEnergy + bg_full.socketEnergy);
    s.wallEnergyVsSequential =
        once.wallEnergy / (fg_full.wallEnergy + bg_full.wallEnergy);
    s.weightedSpeedup =
        weightedSpeedup({fg_full.time, bg_full.time},
                        {once.fg.completionTime, once.bg.completionTime});

    switch (policy) {
      case Policy::Shared:
        s.fgWays = opts_.system.hierarchy.llc.ways;
        break;
      case Policy::Fair:
        s.fgWays = opts_.system.hierarchy.llc.ways / 2;
        break;
      case Policy::Biased:
        s.fgWays = biased().fgWays;
        break;
      case Policy::Dynamic:
        s.fgWays = dynCtrl_ ? dynCtrl_->fgWays() : 0;
        break;
    }
    return s;
}

} // namespace capart
