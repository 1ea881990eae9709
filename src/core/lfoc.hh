/**
 * @file
 * LFOC-style clustering partitioner.
 *
 * LFOC/LFOC+ (PAPERS.md) observe that commodity 20-way LLCs cannot give
 * every co-runner a private partition, but most co-runners do not need
 * one: *light* apps (low MPKI) barely touch the cache and can share a
 * small partition; *streaming* apps (high MPKI, flat miss curve) gain
 * nothing from capacity and must be isolated so they stop thrashing
 * everyone else; only the *cache-sensitive* apps — steep miss curves —
 * deserve dedicated ways. This module implements that scheme:
 *
 *  1. classify each app from its MPKI and miss-curve shape;
 *  2. pack lights into one small shared partition and streamers into
 *     another, both at the top of the way range;
 *  3. split the remaining ways among sensitive apps in proportion to
 *     their miss-curve utility — a *fractional* target per app;
 *  4. realize the fractional targets over time by "bouncing" each
 *     sensitive app between adjacent integer masks across decision
 *     windows (a persistent error accumulator per app, largest-
 *     remainder rounding per window), so the time-averaged allocation
 *     converges on the fractional ideal a way-granular mask cannot
 *     express in any single window.
 *
 * Every window's masks still cover all ways exactly (sensitive
 * allocations are disjoint; the two cluster partitions are shared by
 * their members only), which the invariant tests lock down.
 */

#ifndef CAPART_CORE_LFOC_HH
#define CAPART_CORE_LFOC_HH

#include <cstddef>
#include <utility>
#include <vector>

#include "core/partitioner.hh"

namespace capart
{

/** LFOC's behavioural app classes. */
enum class AppClass
{
    Light,     //!< low MPKI: cache-insensitive, packs into a shared slice
    Streaming, //!< high MPKI, flat curve: isolate, capacity is wasted
    Sensitive  //!< steep curve: dedicated ways pay off
};

/**
 * MPKI floor below which an app is light (LFOC's "light sharers").
 * Judged cache-rich — against the miss curve's value at the whole LLC
 * — because a small-footprint app squeezed into a thin slice looks
 * heavy right up until the light slice fits it. Falls back to the
 * observed MPKI when no curve was profiled.
 */
inline constexpr double kLfocLightMpki = 10.0;
/**
 * An app whose miss curve drops by less than this fraction between
 * 1 way and the whole cache is flat — capacity does not help it.
 * Combined with a non-light MPKI floor that means streaming.
 */
inline constexpr double kLfocFlatCurveGain = 0.25;
/** Ways of the shared partition all light apps occupy. */
inline constexpr unsigned kLfocLightWays = 2;
/** Ways of the isolation partition all streaming apps share. */
inline constexpr unsigned kLfocStreamWays = 1;

/**
 * Classify one app. Light wins on a low cache-rich MPKI floor alone; a
 * missing curve defaults non-light apps to Sensitive (dedicated ways
 * are the safe misclassification: a streamer wastes them, a sensitive
 * app starved of them breaches its SLO).
 */
AppClass lfocClassify(const AppObservation &app, unsigned total_ways);

/** LFOC-style clustering as a (stateful) @ref Partitioner. */
class LfocPartitioner : public Partitioner
{
  public:
    const char *name() const override { return "lfoc"; }
    std::vector<WayMask> decide(const std::vector<AppObservation> &apps,
                                unsigned total_ways) override;

    // ------------- introspection (tests and decision traces) ---------
    /** Classes assigned on the last decide() call, one per app. */
    const std::vector<AppClass> &lastClasses() const { return classes_; }
    /**
     * Fractional way targets of the last decide() call, one per app
     * (cluster members report their cluster's width). The bouncing
     * test checks the time-averaged integer allocation of each
     * sensitive app against this target.
     */
    const std::vector<double> &lastTargets() const { return targets_; }
    /**
     * The fractional-way bounce accumulators after the last decide()
     * call (empty before the first). Together with the observation
     * vector this is the *complete* carried state of the policy, so a
     * journaled decision replays on a fresh partitioner via
     * restoreBounceError() (core/npartition_journal).
     */
    const std::vector<double> &bounceError() const { return err_; }
    /** Restore accumulators captured by bounceError() (replay path). */
    void restoreBounceError(std::vector<double> err)
    {
        err_ = std::move(err);
    }

  private:
    std::vector<AppClass> classes_;
    std::vector<double> targets_;
    /** Per-app fractional-way error carried across windows. */
    std::vector<double> err_;
};

} // namespace capart

#endif // CAPART_CORE_LFOC_HH
