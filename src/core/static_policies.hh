/**
 * @file
 * Static LLC partitioning policies evaluated in §5.2:
 *
 *  - shared — no partitioning; both applications replace anywhere.
 *  - fair   — the 12 ways split evenly (6/6).
 *  - biased — exhaustive search over uneven splits; among splits with
 *             minimum foreground degradation, pick the one maximizing
 *             background throughput.
 */

#ifndef CAPART_CORE_STATIC_POLICIES_HH
#define CAPART_CORE_STATIC_POLICIES_HH

#include <string>
#include <vector>

#include "sim/experiment.hh"
#include "workload/app_params.hh"

namespace capart
{

/** Cache allocation policies compared by the paper. */
enum class Policy
{
    Shared,  //!< unpartitioned LLC
    Fair,    //!< even static split
    Biased,  //!< best uneven static split (oracle search)
    Dynamic  //!< the paper's online algorithm (§6)
};

const char *policyName(Policy p);

/** One point of the biased-search sweep. */
struct BiasedSweepPoint
{
    unsigned fgWays = 0;
    Seconds fgTime = 0.0;
    double bgThroughput = 0.0;
};

/** Result of the exhaustive biased search. */
struct BiasedSearchResult
{
    /** Ways given to the foreground in the winning split. */
    unsigned fgWays = 0;
    SplitMasks masks;
    /** Foreground time / background throughput at the winning split. */
    Seconds fgTime = 0.0;
    double bgThroughput = 0.0;
    /** The winning split's run: runPair with the search's options and
     *  `masks`, so a caller need not simulate it again. */
    PairResult run;
    /** Every split evaluated (for tables and ablations). */
    std::vector<BiasedSweepPoint> sweep;
};

/** FG times within (1 + kBiasedTolerance) x best count as "minimum". */
constexpr double kBiasedTolerance = 0.01;

/**
 * Exhaustively evaluate every split of the LLC between @p fg and @p bg
 * that leaves each side at least one way, running each as @p pair with
 * the split's masks, and return the paper's biased choice (§5.2):
 * among allocations with minimum foreground degradation, the one that
 * maximizes background performance.
 */
BiasedSearchResult findBiasedPartition(const AppParams &fg,
                                       const AppParams &bg,
                                       const PairOptions &pair);

/** Pair masks for a static policy (Biased requires the search result). */
SplitMasks policyMasks(Policy p, unsigned total_ways,
                       unsigned biased_fg_ways = 0);

} // namespace capart

#endif // CAPART_CORE_STATIC_POLICIES_HH
