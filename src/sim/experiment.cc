#include "sim/experiment.hh"

#include "common/logging.hh"
#include "obs/timeseries.hh"

namespace capart
{

SplitMasks
splitWays(unsigned fg_ways, unsigned total_ways)
{
    capart_assert(fg_ways >= 1 && fg_ways < total_ways);
    SplitMasks m;
    m.fg = WayMask::range(0, fg_ways);
    m.bg = WayMask::range(fg_ways, total_ways - fg_ways);
    return m;
}

void
journalRunStart(const char *rule, std::size_t num_apps, unsigned total_ways,
                std::vector<std::pair<std::string, double>> extra)
{
    if (!obs::enabled())
        return;
    obs::JournalEntry e;
    e.tUs = 0.0;
    e.kind = "run";
    e.rule = rule;
    e.fields.emplace_back("num_apps", static_cast<double>(num_apps));
    e.fields.emplace_back("total_ways", total_ways);
    for (auto &field : extra)
        e.fields.push_back(std::move(field));
    obs::timeseries().journal(std::move(e));
}

SoloResult
runSolo(const AppParams &params, const SoloOptions &opts)
{
    capart_assert(opts.threads >= 1);
    System sys(opts.system);
    const AppParams scaled = params.scaled(opts.scale);
    const AppId id = sys.addAppThreads(scaled, 0, opts.threads);
    const unsigned total_ways = sys.llcWays();
    capart_assert(opts.ways >= 1 && opts.ways <= total_ways);
    if (opts.ways < total_ways)
        sys.setWayMask(id, WayMask::range(0, opts.ways));

    const RunResult run = sys.run();
    SoloResult res;
    res.app = run.app(id);
    res.time = run.makespan;
    res.socketEnergy = run.socketEnergy;
    res.wallEnergy = run.wallEnergy;
    res.timedOut = run.timedOut;
    return res;
}

PairResult
runPair(const AppParams &fg, const AppParams &bg, const PairOptions &opts)
{
    SystemConfig cfg = opts.system;
    System sys(cfg);

    const unsigned fg_cores =
        (opts.fgThreads + cfg.htsPerCore - 1) / cfg.htsPerCore;
    capart_assert(opts.fgThreads >= 1 && opts.bgThreads >= 1);
    capart_assert(fg_cores * cfg.htsPerCore +
                      opts.bgThreads <= cfg.numHts());

    const AppId fg_id =
        sys.addAppThreads(fg.scaled(opts.scale), 0, opts.fgThreads);
    const AppId bg_id = sys.addAppThreads(bg.scaled(opts.scale), fg_cores,
                                          opts.bgThreads,
                                          opts.bgContinuous);

    if (!opts.fgMask.empty())
        sys.setWayMask(fg_id, opts.fgMask);
    if (!opts.bgMask.empty())
        sys.setWayMask(bg_id, opts.bgMask);
    if (opts.controller)
        sys.setController(opts.controller);
    if (opts.prepare)
        opts.prepare(sys, fg_id, bg_id);

    const RunResult run = sys.run();
    PairResult res;
    res.fg = run.app(fg_id);
    res.bg = run.app(bg_id);
    res.fgTime = res.fg.completionTime;
    res.bgThroughput = res.bg.throughputIps;
    res.socketEnergy = run.socketEnergy;
    res.wallEnergy = run.wallEnergy;
    res.timedOut = run.timedOut;
    res.fgWindows = sys.monitor(fg_id).windows();
    return res;
}

} // namespace capart
