/**
 * @file
 * Property, invariant, and behavioural tests of the N-app partitioning
 * stack: the common Partitioner interface contract, the UCP lookahead
 * allocator against brute force (exact on concave curves, within the
 * factor-two utility bound on arbitrary ones), LFOC classification and
 * fractional-way bouncing, and small end-to-end N-app runs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <random>
#include <vector>

#include "core/lfoc.hh"
#include "core/napp.hh"
#include "core/partitioner.hh"
#include "core/ucp.hh"
#include "sim/experiment.hh"
#include "workload/catalog.hh"

namespace capart
{
namespace
{

WayMask
unionOf(const std::vector<WayMask> &masks)
{
    WayMask u;
    for (const WayMask &m : masks)
        u = u | m;
    return u;
}

/** The interface contract every decide() result must satisfy. */
void
expectMaskInvariants(const std::vector<WayMask> &masks, std::size_t n,
                     unsigned total_ways, const char *what)
{
    ASSERT_EQ(masks.size(), n) << what;
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_FALSE(masks[i].empty())
            << what << ": app " << i << " has no ways";
        EXPECT_TRUE((masks[i] & WayMask::all(total_ways)) == masks[i])
            << what << ": app " << i << " reaches past way "
            << total_ways;
    }
    EXPECT_TRUE(unionOf(masks) == WayMask::all(total_ways))
        << what << ": some way is stranded uncovered";
}

void
expectDisjoint(const std::vector<WayMask> &masks, const char *what)
{
    for (std::size_t i = 0; i < masks.size(); ++i) {
        for (std::size_t j = i + 1; j < masks.size(); ++j) {
            EXPECT_TRUE((masks[i] & masks[j]).empty())
                << what << ": apps " << i << " and " << j << " overlap";
        }
    }
}

std::vector<AppObservation>
plainObs(std::size_t n)
{
    std::vector<AppObservation> obs(n);
    for (std::size_t i = 0; i < n; ++i)
        obs[i].id = static_cast<AppId>(i);
    return obs;
}

/** Strictly concave-ish curve: non-increasing with non-increasing
 *  marginal gains, the regime where unit greedy is provably optimal. */
std::vector<double>
concaveCurve(std::mt19937 &rng, unsigned ways)
{
    std::uniform_real_distribution<double> head(10.0, 100.0);
    std::uniform_real_distribution<double> gain(0.0, 1.0);
    std::vector<double> g(ways);
    for (double &v : g)
        v = gain(rng);
    std::sort(g.begin(), g.end(), std::greater<>());
    const double start = head(rng);
    double sum = 0.0;
    for (const double v : g)
        sum += v;
    // Scale total savings below the starting level so the curve stays
    // non-negative (a negative miss rate is meaningless).
    const double scale = sum > 0.0 ? 0.9 * start / sum : 0.0;
    std::vector<double> curve{start};
    for (unsigned w = 0; w < ways; ++w)
        curve.push_back(curve.back() - g[w] * scale);
    return curve;
}

/** Arbitrary non-increasing curve: random levels sorted descending —
 *  convex stretches, knees, and plateaus included. */
std::vector<double>
lumpyCurve(std::mt19937 &rng, unsigned ways)
{
    std::uniform_real_distribution<double> level(0.0, 100.0);
    std::vector<double> curve(ways + 1);
    for (double &v : curve)
        v = level(rng);
    std::sort(curve.begin(), curve.end(), std::greater<>());
    return curve;
}

/** Exhaustive minimum of ucpCost over all allocations of @p ways with
 *  one way minimum per app (the oracle the property suite compares
 *  against; apps <= 4 and ways <= 8 keep this tiny). */
double
bruteForceCost(const std::vector<std::vector<double>> &curves,
               unsigned ways)
{
    const std::size_t n = curves.size();
    std::vector<unsigned> alloc(n, 1);
    double best = std::numeric_limits<double>::infinity();
    const auto recurse = [&](const auto &self, std::size_t i,
                             unsigned left) -> void {
        if (i + 1 == n) {
            alloc[i] = left;
            best = std::min(best, ucpCost(curves, alloc));
            return;
        }
        const unsigned max_here =
            left - static_cast<unsigned>(n - i - 1);
        for (unsigned w = 1; w <= max_here; ++w) {
            alloc[i] = w;
            self(self, i + 1, left - w);
        }
    };
    recurse(recurse, 0, ways);
    return best;
}

// ---------------------------------------------------------------------
// fairMasks
// ---------------------------------------------------------------------

TEST(FairMasks, EvenSplitWithRemainderToFirstApps)
{
    const auto masks = fairMasks(3, 8); // 3,3,2
    expectMaskInvariants(masks, 3, 8, "fairMasks(3,8)");
    expectDisjoint(masks, "fairMasks(3,8)");
    EXPECT_EQ(masks[0].count(), 3u);
    EXPECT_EQ(masks[1].count(), 3u);
    EXPECT_EQ(masks[2].count(), 2u);
    EXPECT_TRUE(masks[0] == WayMask::range(0, 3));
    EXPECT_TRUE(masks[1] == WayMask::range(3, 3));
    EXPECT_TRUE(masks[2] == WayMask::range(6, 2));
}

TEST(FairMasks, TwoAppsMatchLegacySplitWays)
{
    const SplitMasks legacy = splitWays(6, 12);
    const auto masks = fairMasks(2, 12);
    EXPECT_TRUE(masks[0] == legacy.fg);
    EXPECT_TRUE(masks[1] == legacy.bg);
}

TEST(FairMasks, MoreAppsThanWaysShareSingleWays)
{
    for (const std::size_t n : {5u, 8u, 24u, 64u}) {
        const unsigned ways = 4;
        const auto masks = fairMasks(n, ways);
        expectMaskInvariants(masks, n, ways,
                             "fairMasks(n > ways)");
        for (const WayMask &m : masks)
            EXPECT_EQ(m.count(), 1u);
    }
}

// ---------------------------------------------------------------------
// Interface invariants, randomized across every policy
// ---------------------------------------------------------------------

TEST(PartitionerInvariants, HoldForAllPoliciesOnRandomInputs)
{
    std::mt19937 rng(20260808);
    std::uniform_int_distribution<unsigned> ways_d(2, 20);
    std::uniform_int_distribution<std::size_t> n_d(1, 24);
    std::uniform_real_distribution<double> mpki_d(0.0, 120.0);
    std::uniform_int_distribution<int> coin(0, 1);

    for (int iter = 0; iter < 400; ++iter) {
        const unsigned ways = ways_d(rng);
        // Occasionally push to the 64-app ceiling to cover the
        // share-a-way fallbacks.
        const std::size_t n =
            iter % 17 == 0 ? 64 : n_d(rng);
        auto obs = plainObs(n);
        for (auto &o : obs) {
            o.mpki = mpki_d(rng);
            o.apki = o.mpki + mpki_d(rng);
            if (coin(rng))
                o.missCurve = lumpyCurve(rng, ways);
        }

        SharedPartitioner shared;
        FairPartitioner fair;
        BiasedPartitioner biased(1 + rng() % ways);
        UcpPartitioner ucp;
        LfocPartitioner lfoc;
        Partitioner *all[] = {&shared, &fair, &biased, &ucp, &lfoc};
        for (Partitioner *p : all) {
            const auto masks = p->decide(obs, ways);
            expectMaskInvariants(masks, n, ways, p->name());
        }
    }
}

TEST(PartitionerInvariants, FairIsDisjointWhenAppsFit)
{
    std::mt19937 rng(7);
    FairPartitioner fair;
    for (int iter = 0; iter < 100; ++iter) {
        const unsigned ways = 2 + rng() % 19;
        const std::size_t n = 1 + rng() % ways;
        const auto masks = fair.decide(plainObs(n), ways);
        expectDisjoint(masks, "fair");
    }
}

TEST(PartitionerInvariants, UcpIsDisjointWithFullCurves)
{
    std::mt19937 rng(11);
    UcpPartitioner ucp;
    for (int iter = 0; iter < 100; ++iter) {
        const unsigned ways = 2 + rng() % 19;
        const std::size_t n = 1 + rng() % ways;
        auto obs = plainObs(n);
        for (auto &o : obs)
            o.missCurve = lumpyCurve(rng, ways);
        const auto masks = ucp.decide(obs, ways);
        expectDisjoint(masks, "ucp");
    }
}

TEST(PartitionerInvariants, StatelessPoliciesAreDeterministic)
{
    std::mt19937 rng(23);
    auto obs = plainObs(6);
    for (auto &o : obs)
        o.missCurve = lumpyCurve(rng, 16);
    SharedPartitioner shared;
    FairPartitioner fair;
    BiasedPartitioner biased(5);
    UcpPartitioner ucp;
    Partitioner *all[] = {&shared, &fair, &biased, &ucp};
    for (Partitioner *p : all) {
        const auto a = p->decide(obs, 16);
        const auto b = p->decide(obs, 16);
        ASSERT_EQ(a.size(), b.size()) << p->name();
        for (std::size_t i = 0; i < a.size(); ++i)
            EXPECT_TRUE(a[i] == b[i]) << p->name() << " app " << i;
    }
}

// ---------------------------------------------------------------------
// Biased
// ---------------------------------------------------------------------

TEST(Biased, TwoAppsReproduceSplitWays)
{
    for (unsigned fg = 1; fg <= 11; ++fg) {
        BiasedPartitioner biased(fg);
        const auto masks = biased.decide(plainObs(2), 12);
        const SplitMasks legacy = splitWays(fg, 12);
        EXPECT_TRUE(masks[0] == legacy.fg) << "fg=" << fg;
        EXPECT_TRUE(masks[1] == legacy.bg) << "fg=" << fg;
    }
}

TEST(Biased, ClampsForegroundWhenCoRunnersExist)
{
    BiasedPartitioner biased(12); // asks for the whole cache
    const auto masks = biased.decide(plainObs(3), 12);
    expectMaskInvariants(masks, 3, 12, "biased clamp");
    EXPECT_EQ(masks[0].count(), 11u);
}

// ---------------------------------------------------------------------
// UCP property suite: >= 1k randomized cases vs brute force
// ---------------------------------------------------------------------

TEST(UcpProperty, SumAndDeterminismOnRandomCurves)
{
    for (std::uint32_t seed = 0; seed < 300; ++seed) {
        std::mt19937 rng(seed);
        const std::size_t n = 1 + rng() % 4;
        const unsigned ways =
            static_cast<unsigned>(n) + rng() % (9 - n);
        std::vector<std::vector<double>> curves;
        for (std::size_t i = 0; i < n; ++i)
            curves.push_back(seed % 2 ? lumpyCurve(rng, ways)
                                      : concaveCurve(rng, ways));
        const auto alloc = ucpAllocate(curves, ways);
        ASSERT_EQ(alloc.size(), n);
        unsigned sum = 0;
        for (const unsigned a : alloc) {
            EXPECT_GE(a, 1u) << "seed " << seed;
            sum += a;
        }
        EXPECT_EQ(sum, ways) << "seed " << seed;
        EXPECT_EQ(ucpAllocate(curves, ways), alloc)
            << "nondeterministic at seed " << seed;
    }
}

TEST(UcpProperty, ExactlyOptimalOnConcaveCurves)
{
    for (std::uint32_t seed = 0; seed < 600; ++seed) {
        std::mt19937 rng(seed ^ 0xc0ffee);
        const std::size_t n = 1 + rng() % 4;
        const unsigned ways =
            static_cast<unsigned>(n) + rng() % (9 - n);
        std::vector<std::vector<double>> curves;
        for (std::size_t i = 0; i < n; ++i)
            curves.push_back(concaveCurve(rng, ways));
        const double cost =
            ucpCost(curves, ucpAllocate(curves, ways));
        const double opt = bruteForceCost(curves, ways);
        // Unit greedy is optimal on concave utility; the lookahead's
        // smallest-block tie-break reduces to it exactly.
        EXPECT_LE(cost, opt + 1e-9 * (1.0 + opt)) << "seed " << seed;
    }
}

TEST(UcpProperty, WithinHalfOfOptimalSavingsOnArbitraryCurves)
{
    for (std::uint32_t seed = 0; seed < 600; ++seed) {
        std::mt19937 rng(seed ^ 0xbeef);
        const std::size_t n = 1 + rng() % 4;
        const unsigned ways =
            static_cast<unsigned>(n) + rng() % (9 - n);
        std::vector<std::vector<double>> curves;
        double start_cost = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
            curves.push_back(lumpyCurve(rng, ways));
            start_cost += curves.back()[1];
        }
        const double cost =
            ucpCost(curves, ucpAllocate(curves, ways));
        const double opt = bruteForceCost(curves, ways);
        // Qureshi & Patt's bound: greedy-with-lookahead keeps at least
        // half the utility (misses saved vs the 1-way-each start) of
        // the exhaustive optimum.
        const double savings = start_cost - cost;
        const double opt_savings = start_cost - opt;
        ASSERT_GE(opt_savings, -1e-9) << "seed " << seed;
        EXPECT_GE(savings, 0.5 * opt_savings - 1e-9)
            << "seed " << seed << " saved " << savings << " of "
            << opt_savings;
    }
}

TEST(UcpProperty, FlatCurvesParkWaysEvenly)
{
    // All-flat curves make every block's rate zero: the parking path
    // must still hand out every way, most-starved app first.
    const std::vector<std::vector<double>> curves(
        3, std::vector<double>(9, 50.0));
    const auto alloc = ucpAllocate(curves, 8);
    EXPECT_EQ(alloc, (std::vector<unsigned>{3, 3, 2}));
}

TEST(UcpPartitioner, FallsBackToFairWithoutCurves)
{
    UcpPartitioner ucp;
    auto obs = plainObs(3);
    obs[1].missCurve = {10.0, 5.0, 2.0}; // others unprofiled
    const auto masks = ucp.decide(obs, 9);
    const auto fair = fairMasks(3, 9);
    for (std::size_t i = 0; i < masks.size(); ++i)
        EXPECT_TRUE(masks[i] == fair[i]);
}

TEST(UcpPartitioner, KneeAppClaimsItsKneeViaLookahead)
{
    // App 0: no gain until 4 ways, then a cliff. Unit greedy would
    // never start down the flat stretch; lookahead takes the 4-block.
    auto obs = plainObs(2);
    obs[0].missCurve = {90, 90, 90, 90, 90, 5, 5, 5, 5};
    obs[1].missCurve = {50, 45, 41, 38, 36, 35, 34.5, 34.2, 34};
    UcpPartitioner ucp;
    const auto masks = ucp.decide(obs, 8);
    EXPECT_GE(masks[0].count(), 5u);
    expectDisjoint(masks, "knee");
}

// ---------------------------------------------------------------------
// LFOC classification
// ---------------------------------------------------------------------

TEST(LfocClassify, CurveFloorDecidesLightness)
{
    // kLfocLightMpki = 10, kLfocFlatCurveGain = 0.25.
    AppObservation light;
    light.mpki = 80.0; // squeezed right now...
    light.missCurve = {100, 60, 20, 4, 4, 4}; // ...but tiny when fed
    EXPECT_EQ(lfocClassify(light, 5), AppClass::Light);

    AppObservation stream;
    stream.missCurve = {40, 31, 30.5, 30.2, 30, 30};
    EXPECT_EQ(lfocClassify(stream, 5), AppClass::Streaming);

    AppObservation sens;
    sens.missCurve = {100, 90, 70, 45, 25, 20};
    EXPECT_EQ(lfocClassify(sens, 5), AppClass::Sensitive);
}

TEST(LfocClassify, MissingCurveFallsBackToMpki)
{
    AppObservation o;
    o.mpki = 0.5;
    EXPECT_EQ(lfocClassify(o, 20), AppClass::Light);
    o.mpki = 50.0;
    // Sensitive is the safe guess: a misclassified streamer wastes
    // ways, a misclassified sensitive app breaches its SLO.
    EXPECT_EQ(lfocClassify(o, 20), AppClass::Sensitive);
}

// ---------------------------------------------------------------------
// LFOC layout and bouncing
// ---------------------------------------------------------------------

std::vector<AppObservation>
lfocMixObs(unsigned ways)
{
    // 2 sensitive (unequal weights), 2 light, 1 streaming.
    std::vector<AppObservation> obs = plainObs(5);
    obs[0].missCurve = {100, 90, 70, 45, 25, 20, 20, 20, 20, 20, 20,
                        20, 20};
    obs[1].missCurve = {120, 100, 60, 50, 46, 44, 43, 42, 41, 40, 40,
                        40, 40};
    obs[2].missCurve = {60, 30, 8, 2, 2, 2, 2, 2, 2, 2, 2, 2, 2};
    obs[3].missCurve = {50, 20, 5, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1};
    obs[4].missCurve = {45, 36, 35, 35, 35, 35, 35, 35, 35, 35, 35,
                        35, 35};
    for (auto &o : obs) {
        o.missCurve.resize(ways + 1, o.missCurve.back());
        o.mpki = o.missCurve[1];
    }
    return obs;
}

TEST(Lfoc, ClustersShareAndSensitiveStayDisjoint)
{
    LfocPartitioner lfoc;
    const unsigned ways = 12;
    const auto obs = lfocMixObs(ways);
    const auto masks = lfoc.decide(obs, ways);
    expectMaskInvariants(masks, obs.size(), ways, "lfoc");
    const auto &cls = lfoc.lastClasses();
    ASSERT_EQ(cls.size(), obs.size());
    EXPECT_EQ(cls[0], AppClass::Sensitive);
    EXPECT_EQ(cls[1], AppClass::Sensitive);
    EXPECT_EQ(cls[2], AppClass::Light);
    EXPECT_EQ(cls[3], AppClass::Light);
    EXPECT_EQ(cls[4], AppClass::Streaming);

    // Lights share one slice; the streamer is isolated from everyone;
    // sensitive allocations are private.
    EXPECT_TRUE(masks[2] == masks[3]);
    EXPECT_TRUE((masks[2] & masks[4]).empty());
    for (const std::size_t s : {0u, 1u}) {
        for (std::size_t o = 0; o < masks.size(); ++o) {
            if (o == s)
                continue;
            EXPECT_TRUE((masks[s] & masks[o]).empty())
                << s << " vs " << o;
        }
    }
}

TEST(Lfoc, BouncingTimeAveragesToFractionalTargets)
{
    LfocPartitioner lfoc;
    const unsigned ways = 12;
    const auto obs = lfocMixObs(ways);
    constexpr int kWindows = 2000;
    std::vector<double> avg(obs.size(), 0.0);
    unsigned sens_total = 0;
    for (int w = 0; w < kWindows; ++w) {
        const auto masks = lfoc.decide(obs, ways);
        expectMaskInvariants(masks, obs.size(), ways, "lfoc window");
        const unsigned this_total = masks[0].count() + masks[1].count();
        if (w == 0)
            sens_total = this_total;
        // Every single window still hands the sensitive cluster the
        // same whole number of ways; only the split inside it bounces.
        ASSERT_EQ(this_total, sens_total) << "window " << w;
        for (std::size_t i = 0; i < obs.size(); ++i)
            avg[i] += masks[i].count();
    }
    const auto &targets = lfoc.lastTargets();
    ASSERT_EQ(targets.size(), obs.size());
    for (const std::size_t i : {0u, 1u}) {
        EXPECT_NEAR(avg[i] / kWindows, targets[i], 0.01)
            << "sensitive app " << i
            << " time-average drifted off its fractional target";
    }
    // The fractional targets themselves partition the sensitive ways.
    EXPECT_NEAR(targets[0] + targets[1], sens_total, 1e-9);
}

TEST(Lfoc, NoSensitiveAppsExpandTheClusters)
{
    LfocPartitioner lfoc;
    auto obs = plainObs(3);
    for (auto &o : obs)
        o.missCurve = {50, 4, 4, 4, 4, 4, 4, 4, 4}; // all light
    const auto masks = lfoc.decide(obs, 8);
    expectMaskInvariants(masks, 3, 8, "all-light");
    EXPECT_TRUE(masks[0] == masks[1]);
    EXPECT_TRUE(masks[1] == masks[2]);
}

TEST(Lfoc, ShrinksClustersBeforeStarvingSensitiveApps)
{
    LfocPartitioner lfoc;
    // 4 sensitive + 1 light + 1 stream on a 6-way cache: the default
    // 2+1 cluster reservation would leave only 3 ways for 4 apps.
    auto obs = plainObs(6);
    for (const std::size_t i : {0u, 1u, 2u, 3u})
        obs[i].missCurve = {100, 80, 55, 30, 25, 22, 20};
    obs[4].missCurve = {60, 30, 5, 5, 5, 5, 5};
    obs[5].missCurve = {45, 36, 35, 35, 35, 35, 35};
    const auto masks = lfoc.decide(obs, 6);
    expectMaskInvariants(masks, 6, 6, "shrunk clusters");
    EXPECT_EQ(masks[4].count(), 1u);
    EXPECT_EQ(masks[5].count(), 1u);
    for (const std::size_t i : {0u, 1u, 2u, 3u})
        EXPECT_EQ(masks[i].count(), 1u);
}

TEST(Lfoc, MoreAppsThanWaysFallsBackFair)
{
    LfocPartitioner lfoc;
    const auto masks = lfoc.decide(plainObs(10), 4);
    const auto fair = fairMasks(10, 4);
    for (std::size_t i = 0; i < masks.size(); ++i)
        EXPECT_TRUE(masks[i] == fair[i]);
}

TEST(Lfoc, FreshInstancesReplayIdentically)
{
    const auto obs = lfocMixObs(12);
    LfocPartitioner a, b;
    for (int w = 0; w < 50; ++w) {
        const auto ma = a.decide(obs, 12);
        const auto mb = b.decide(obs, 12);
        for (std::size_t i = 0; i < ma.size(); ++i)
            EXPECT_TRUE(ma[i] == mb[i]) << "window " << w;
    }
}

// ---------------------------------------------------------------------
// N-app runs end to end (small machine, tiny scale)
// ---------------------------------------------------------------------

std::vector<NAppMember>
smallMix(std::size_t n, double)
{
    std::vector<NAppMember> members;
    const auto apps = Catalog::nAppMix(n, 0);
    for (std::size_t i = 0; i < apps.size(); ++i) {
        NAppMember m;
        m.params = apps[i];
        m.threads = 2;
        m.continuous = i != 0;
        members.push_back(m);
    }
    return members;
}

NAppOptions
smallOpts()
{
    NAppOptions o;
    o.system = nAppSystem(4, 8);
    o.scale = 0.02;
    return o;
}

TEST(NAppRun, AllPoliciesCompleteAndAccount)
{
    const auto members = smallMix(3, 0.02);
    const NAppOptions opts = smallOpts();
    for (unsigned p = 0; p < kNumNPolicies; ++p) {
        const auto policy = static_cast<NPolicy>(p);
        const NAppRunResult r = runNApp(members, policy, opts);
        ASSERT_EQ(r.apps.size(), members.size()) << npolicyName(policy);
        EXPECT_FALSE(r.timedOut) << npolicyName(policy);
        EXPECT_TRUE(r.apps[0].completed) << npolicyName(policy);
        EXPECT_GT(r.fgTime, 0.0) << npolicyName(policy);
        EXPECT_GT(r.socketEnergy, 0.0) << npolicyName(policy);
        for (const AppRunStats &a : r.apps)
            EXPECT_GT(a.retired, 0u) << npolicyName(policy);
    }
}

TEST(NAppRun, DeterministicAcrossRepeats)
{
    const auto members = smallMix(3, 0.02);
    const NAppOptions opts = smallOpts();
    const NAppRunResult a = runNApp(members, NPolicy::Lfoc, opts);
    const NAppRunResult b = runNApp(members, NPolicy::Lfoc, opts);
    EXPECT_DOUBLE_EQ(a.fgTime, b.fgTime);
    EXPECT_DOUBLE_EQ(a.socketEnergy, b.socketEnergy);
    EXPECT_EQ(a.remasks, b.remasks);
    for (std::size_t i = 0; i < a.apps.size(); ++i) {
        EXPECT_EQ(a.apps[i].retired, b.apps[i].retired);
        EXPECT_EQ(a.apps[i].llcMisses, b.apps[i].llcMisses);
    }
}

TEST(NAppRun, LfocReportsClassesAndBounces)
{
    // Four apps so the mix holds two sensitive co-runners (429.mcf and
    // fop): with only one, the whole sensitive budget is a constant
    // single mask and there is nothing to bounce.
    const auto members = smallMix(4, 0.02);
    const NAppRunResult r =
        runNApp(members, NPolicy::Lfoc, smallOpts());
    EXPECT_EQ(r.lfocClasses.size(), members.size());
    // Decision windows fire throughout the run; the bouncing policy
    // must actually reinstall masks, not sit on its first decision.
    EXPECT_GT(r.remasks, 0u);
}

TEST(NAppRun, ProfiledCurvesAreSaneAndDeterministic)
{
    const SystemConfig sys = nAppSystem(4, 8);
    const AppParams &app = Catalog::byName("429.mcf");
    const MissCurve a = profileMissCurve(app, sys, 0.02);
    const MissCurve b = profileMissCurve(app, sys, 0.02);
    ASSERT_EQ(a.mpkiAtWays.size(), 9u);
    EXPECT_GT(a.accesses, 0u);
    EXPECT_GT(a.apki, 0.0);
    EXPECT_EQ(a.mpkiAtWays, b.mpkiAtWays);
    // Non-increasing in capacity, and w = 0 means every access misses.
    EXPECT_NEAR(a.mpkiAtWays[0], a.apki, 1e-9);
    for (std::size_t w = 1; w < a.mpkiAtWays.size(); ++w)
        EXPECT_LE(a.mpkiAtWays[w], a.mpkiAtWays[w - 1] + 1e-9);
}

TEST(NAppStudy, SummaryMetricsAreConsistent)
{
    NAppStudyOptions so;
    so.run = smallOpts();
    NAppStudy study(smallMix(3, 0.02), so);
    const NAppPolicySummary s = study.summarize(NPolicy::Fair);
    EXPECT_GT(s.stp, 0.0);
    EXPECT_LE(s.stp, 3.0 + 1e-9); // N apps cap STP at N
    EXPECT_GE(s.unfairness, 1.0);
    EXPECT_GE(s.worstSlowdown, s.fgSlowdown - 1e-12);
    EXPECT_GT(s.throughputIps, 0.0);
    EXPECT_LE(s.sloBreaches, 3u);
    // Same mix under a second policy reuses the cached solo baselines;
    // summaries must stay internally consistent, not equal.
    const NAppPolicySummary sh = study.summarize(NPolicy::Shared);
    EXPECT_GT(sh.stp, 0.0);
}

} // namespace
} // namespace capart
