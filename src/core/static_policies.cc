#include "core/static_policies.hh"

#include <limits>
#include <utility>

#include "common/logging.hh"

namespace capart
{

const char *
policyName(Policy p)
{
    switch (p) {
      case Policy::Shared:
        return "shared";
      case Policy::Fair:
        return "fair";
      case Policy::Biased:
        return "biased";
      case Policy::Dynamic:
        return "dynamic";
    }
    capart_panic("unknown policy");
}

SplitMasks
policyMasks(Policy p, unsigned total_ways, unsigned biased_fg_ways)
{
    SplitMasks m;
    switch (p) {
      case Policy::Shared:
        m.fg = WayMask::all(total_ways);
        m.bg = WayMask::all(total_ways);
        return m;
      case Policy::Fair:
        return splitWays(total_ways / 2, total_ways);
      case Policy::Biased:
        capart_assert(biased_fg_ways >= 1 &&
                      biased_fg_ways < total_ways);
        return splitWays(biased_fg_ways, total_ways);
      case Policy::Dynamic:
        // The dynamic controller starts from a near-maximal foreground
        // allocation and adapts from there (§6.3).
        return splitWays(total_ways - 1, total_ways);
    }
    capart_panic("unknown policy");
}

BiasedSearchResult
findBiasedPartition(const AppParams &fg, const AppParams &bg,
                    const PairOptions &pair)
{
    BiasedSearchResult result;
    const unsigned total = pair.system.hierarchy.llc.ways;
    capart_assert(total >= 2);

    Seconds best_time = std::numeric_limits<double>::infinity();
    std::vector<PairResult> runs;
    runs.reserve(total - 1);
    for (unsigned fg_ways = 1; fg_ways < total; ++fg_ways) {
        PairOptions split = pair;
        const SplitMasks masks = splitWays(fg_ways, total);
        split.fgMask = masks.fg;
        split.bgMask = masks.bg;
        journalRunStart(policyName(Policy::Biased), 2, total,
                        {{"fg_ways", fg_ways},
                         {"bg_continuous", pair.bgContinuous},
                         {"search", 1}});
        const PairResult &r = runs.emplace_back(runPair(fg, bg, split));

        BiasedSweepPoint pt;
        pt.fgWays = fg_ways;
        pt.fgTime = r.fgTime;
        pt.bgThroughput = r.bgThroughput;
        result.sweep.push_back(pt);
        if (r.fgTime < best_time)
            best_time = r.fgTime;
    }

    // Among splits whose foreground time is within tolerance of the
    // best, pick the split with the highest background throughput.
    double best_bg = -1.0;
    for (const BiasedSweepPoint &pt : result.sweep) {
        if (pt.fgTime <= best_time * (1.0 + kBiasedTolerance) &&
            pt.bgThroughput > best_bg) {
            best_bg = pt.bgThroughput;
            result.fgWays = pt.fgWays;
            result.fgTime = pt.fgTime;
            result.bgThroughput = pt.bgThroughput;
        }
    }
    capart_assert(result.fgWays >= 1);
    result.masks = splitWays(result.fgWays, total);
    result.run = std::move(runs[result.fgWays - 1]);
    return result;
}

} // namespace capart
