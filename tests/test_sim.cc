/**
 * @file
 * Tests for the simulated machine: launch/pinning semantics, run
 * accounting, determinism, and the first-order contention properties
 * the multiprogram experiments rely on.
 */

#include <gtest/gtest.h>

#include "core/napp.hh"
#include "core/static_policies.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workload/catalog.hh"

namespace capart
{
namespace
{

constexpr double kTestScale = 0.03;

TEST(System, SoloRunCompletes)
{
    SoloOptions o;
    o.threads = 4;
    o.scale = kTestScale;
    const SoloResult r = runSolo(Catalog::byName("ferret"), o);
    EXPECT_TRUE(r.app.completed);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(r.time, 0.0);
    EXPECT_GT(r.app.retired, 0u);
    EXPECT_GT(r.socketEnergy, 0.0);
    EXPECT_GT(r.wallEnergy, r.socketEnergy);
}

TEST(System, DeterministicAcrossRuns)
{
    SoloOptions o;
    o.threads = 4;
    o.scale = kTestScale;
    const SoloResult a = runSolo(Catalog::byName("canneal"), o);
    const SoloResult b = runSolo(Catalog::byName("canneal"), o);
    EXPECT_DOUBLE_EQ(a.time, b.time);
    EXPECT_EQ(a.app.llcMisses, b.app.llcMisses);
    EXPECT_DOUBLE_EQ(a.socketEnergy, b.socketEnergy);
}

TEST(System, SeedChangesDetails)
{
    SoloOptions a;
    a.threads = 4;
    a.scale = kTestScale;
    SoloOptions b = a;
    b.system.seed = 999;
    const SoloResult ra = runSolo(Catalog::byName("canneal"), a);
    const SoloResult rb = runSolo(Catalog::byName("canneal"), b);
    EXPECT_NE(ra.app.llcMisses, rb.app.llcMisses);
    // ... but the behaviour is statistically stable.
    EXPECT_NEAR(rb.time / ra.time, 1.0, 0.1);
}

TEST(System, RejectsDoubleHtAssignment)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.addApp(Catalog::byName("ferret").scaled(kTestScale), {0, 1});
    EXPECT_DEATH(
        sys.addApp(Catalog::byName("dedup").scaled(kTestScale), {1, 2}),
        "assert");
}

TEST(System, MoreWaysNeverHurtCacheBoundApp)
{
    // Monotonicity: fop's runtime must not increase with allocation
    // (ignoring the pathological 1-way configuration paper also skips).
    double prev = 1e30;
    for (unsigned ways : {2u, 4u, 8u, 12u}) {
        SoloOptions o;
        o.threads = 4;
        o.ways = ways;
        o.scale = kTestScale;
        const SoloResult r = runSolo(Catalog::byName("fop"), o);
        EXPECT_LT(r.time, prev * 1.02) << "ways=" << ways;
        prev = r.time;
    }
}

TEST(System, HalfMbDirectMappedIsPathological)
{
    // §3.2: 0.5 MB direct-mapped is always detrimental.
    SoloOptions one;
    one.threads = 4;
    one.ways = 1;
    one.scale = kTestScale;
    SoloOptions four = one;
    four.ways = 4;
    const SoloResult r1 = runSolo(Catalog::byName("tomcat"), one);
    const SoloResult r4 = runSolo(Catalog::byName("tomcat"), four);
    EXPECT_GT(r1.time, r4.time * 1.02);
}

TEST(System, ThreadScalingSpeedsUpParallelApp)
{
    SoloOptions o1;
    o1.threads = 1;
    o1.scale = kTestScale;
    SoloOptions o8 = o1;
    o8.threads = 8;
    const SoloResult t1 = runSolo(Catalog::byName("blackscholes"), o1);
    const SoloResult t8 = runSolo(Catalog::byName("blackscholes"), o8);
    EXPECT_GT(t1.time / t8.time, 3.0);
}

TEST(System, SingleThreadedAppIgnoresExtraThreads)
{
    SoloOptions o1;
    o1.threads = 1;
    o1.scale = kTestScale;
    SoloOptions o8 = o1;
    o8.threads = 8;
    const SoloResult t1 = runSolo(Catalog::byName("453.povray"), o1);
    const SoloResult t8 = runSolo(Catalog::byName("453.povray"), o8);
    EXPECT_NEAR(t8.time / t1.time, 1.0, 0.05);
}

TEST(System, SmtPairSlowerThanTwoCores)
{
    // 2 threads on one core (SMT) vs 2 threads on two cores.
    const AppParams app =
        Catalog::byName("blackscholes").scaled(kTestScale);
    SystemConfig cfg;

    System smt(cfg);
    const AppId a1 = smt.addApp(app, {0, 1}); // both HTs of core 0
    const Seconds t_smt = smt.run().app(a1).completionTime;

    System spread(cfg);
    const AppId a2 = spread.addApp(app, {0, 2}); // one HT per core
    const Seconds t_spread = spread.run().app(a2).completionTime;

    EXPECT_GT(t_smt, t_spread * 1.2);
}

TEST(System, CoRunSlowsSensitiveForeground)
{
    const AppParams &fg = Catalog::byName("canneal");
    const AppParams &bg = Catalog::byName("streamcluster");
    SoloOptions so;
    so.threads = 4;
    so.scale = kTestScale;
    const SoloResult solo = runSolo(fg, so);

    PairOptions po;
    po.scale = kTestScale;
    const PairResult pair = runPair(fg, bg, po);
    EXPECT_GT(pair.fgTime, solo.time * 1.1)
        << "cache-sensitive fg must be hurt by a streaming bg";
    EXPECT_GT(pair.bgThroughput, 0.0);
}

TEST(System, InsensitivePairBarelyInterferes)
{
    const AppParams &fg = Catalog::byName("swaptions");
    const AppParams &bg = Catalog::byName("453.povray");
    SoloOptions so;
    so.threads = 4;
    so.scale = kTestScale;
    const SoloResult solo = runSolo(fg, so);
    PairOptions po;
    po.scale = kTestScale;
    const PairResult pair = runPair(fg, bg, po);
    EXPECT_LT(pair.fgTime, solo.time * 1.03);
}

TEST(System, PartitioningProtectsForeground)
{
    // A cache-hungry foreground next to a streaming background: giving
    // the stream a small partition shields the foreground (§5.2).
    const AppParams &fg = Catalog::byName("471.omnetpp");
    const AppParams &bg = Catalog::byName("streamcluster");
    PairOptions shared;
    shared.scale = kTestScale;
    const PairResult sh = runPair(fg, bg, shared);

    PairOptions biased = shared;
    const SplitMasks m = splitWays(6, 12);
    biased.fgMask = m.fg;
    biased.bgMask = m.bg;
    const PairResult bi = runPair(fg, bg, biased);
    EXPECT_LT(bi.fgTime, sh.fgTime)
        << "a 6/6 split must shield omnetpp from the stream";
}

TEST(System, ContinuousBackgroundRestarts)
{
    const AppParams &fg = Catalog::byName("ferret");
    const AppParams &bg = Catalog::byName("swaptions");
    PairOptions po;
    po.scale = 0.05;
    // Make the background much shorter so it must loop.
    const PairResult r = runPair(fg, bg.scaled(0.02), po);
    EXPECT_GT(r.bg.iterations, 1u);
    EXPECT_TRUE(r.fg.completed);
}

TEST(System, RunWithOnlyContinuousAppsIsRejected)
{
    SystemConfig cfg;
    System sys(cfg);
    sys.addApp(Catalog::byName("ferret").scaled(kTestScale), {0, 1},
               /*continuous=*/true);
    EXPECT_EXIT(sys.run(), ::testing::ExitedWithCode(1),
                "no non-continuous");
}

TEST(System, PerfMonitorProducesWindows)
{
    SystemConfig cfg;
    cfg.perfWindow = 10e-6;
    System sys(cfg);
    const AppId id =
        sys.addAppOnCores(Catalog::byName("429.mcf").scaled(0.05), 0, 2);
    sys.run();
    EXPECT_GT(sys.monitor(id).windowCount(), 10u);
}

TEST(System, EnergyScalesWithWork)
{
    SoloOptions small;
    small.threads = 4;
    small.scale = 0.02;
    SoloOptions big = small;
    big.scale = 0.06;
    const SoloResult rs = runSolo(Catalog::byName("ferret"), small);
    const SoloResult rb = runSolo(Catalog::byName("ferret"), big);
    // Sub-linear at small scales: the short run pays cold-start misses
    // over a larger fraction of its life.
    EXPECT_NEAR(rb.socketEnergy / rs.socketEnergy, 3.0, 0.6);
}

TEST(System, UncachedHogBypassesLlc)
{
    SoloOptions o;
    o.threads = 1;
    o.scale = kTestScale;
    const SoloResult r = runSolo(Catalog::byName("stream_uncached"), o);
    EXPECT_EQ(r.app.llcAccesses, 0u);
    EXPECT_GT(r.app.uncachedBytes, 0u);
}

TEST(System, WayMaskQueryReflectsSet)
{
    SystemConfig cfg;
    System sys(cfg);
    const AppId id =
        sys.addAppOnCores(Catalog::byName("ferret").scaled(0.01), 0, 2);
    EXPECT_EQ(sys.wayMask(id), WayMask::all(12));
    sys.setWayMask(id, WayMask::range(0, 5));
    EXPECT_EQ(sys.wayMask(id), WayMask::range(0, 5));
}

TEST(Experiment, SplitWaysDisjointAndComplete)
{
    for (unsigned fg = 1; fg < 12; ++fg) {
        const SplitMasks m = splitWays(fg, 12);
        EXPECT_EQ(m.fg.count(), fg);
        EXPECT_EQ(m.bg.count(), 12 - fg);
        EXPECT_EQ((m.fg & m.bg).count(), 0u);
        EXPECT_EQ((m.fg | m.bg), WayMask::all(12));
    }
}

// ---------------------------------------------------------------------
// N = 2 differential: the N-app path must reproduce the legacy
// foreground/background pair path bit for bit for every ported policy.
// Same machine, same pinning, same mask-install sequence — if any of
// those drifts, these comparisons break before any bench notices.
// ---------------------------------------------------------------------

void
expectBitIdentical(const PairResult &legacy, const NAppRunResult &napp,
                   const char *what)
{
    ASSERT_EQ(napp.apps.size(), 2u) << what;
    const AppRunStats *legacy_apps[] = {&legacy.fg, &legacy.bg};
    for (int i = 0; i < 2; ++i) {
        const AppRunStats &a = *legacy_apps[i];
        const AppRunStats &b = napp.apps[i];
        EXPECT_EQ(a.completed, b.completed) << what << " app " << i;
        EXPECT_EQ(a.iterations, b.iterations) << what << " app " << i;
        EXPECT_EQ(a.retired, b.retired) << what << " app " << i;
        EXPECT_EQ(a.cycles, b.cycles) << what << " app " << i;
        EXPECT_EQ(a.llcAccesses, b.llcAccesses) << what << " app " << i;
        EXPECT_EQ(a.llcMisses, b.llcMisses) << what << " app " << i;
        EXPECT_EQ(a.dramReads, b.dramReads) << what << " app " << i;
        EXPECT_EQ(a.dramWrites, b.dramWrites) << what << " app " << i;
        EXPECT_DOUBLE_EQ(a.completionTime, b.completionTime)
            << what << " app " << i;
        EXPECT_DOUBLE_EQ(a.throughputIps, b.throughputIps)
            << what << " app " << i;
    }
    EXPECT_DOUBLE_EQ(legacy.fgTime, napp.fgTime) << what;
    EXPECT_DOUBLE_EQ(legacy.socketEnergy, napp.socketEnergy) << what;
    EXPECT_DOUBLE_EQ(legacy.wallEnergy, napp.wallEnergy) << what;
    EXPECT_EQ(legacy.timedOut, napp.timedOut) << what;
}

std::vector<NAppMember>
pairAsMembers(const AppParams &fg, const AppParams &bg)
{
    NAppMember m0;
    m0.params = fg;
    m0.threads = 4;
    m0.continuous = false;
    NAppMember m1;
    m1.params = bg;
    m1.threads = 4;
    m1.continuous = true;
    return {m0, m1};
}

TEST(NAppDifferential, SharedMatchesLegacyPair)
{
    const AppParams &fg = Catalog::byName("471.omnetpp");
    const AppParams &bg = Catalog::byName("streamcluster");
    PairOptions po;
    po.scale = kTestScale;
    const PairResult legacy = runPair(fg, bg, po);

    NAppOptions no;
    no.scale = kTestScale;
    const NAppRunResult napp =
        runNApp(pairAsMembers(fg, bg), NPolicy::Shared, no);
    expectBitIdentical(legacy, napp, "shared");
}

TEST(NAppDifferential, FairMatchesLegacyPair)
{
    const AppParams &fg = Catalog::byName("canneal");
    const AppParams &bg = Catalog::byName("470.lbm");
    PairOptions po;
    po.scale = kTestScale;
    const SplitMasks m = policyMasks(Policy::Fair, 12);
    po.fgMask = m.fg;
    po.bgMask = m.bg;
    const PairResult legacy = runPair(fg, bg, po);

    NAppOptions no;
    no.scale = kTestScale;
    const NAppRunResult napp =
        runNApp(pairAsMembers(fg, bg), NPolicy::Fair, no);
    expectBitIdentical(legacy, napp, "fair");
}

TEST(NAppDifferential, BiasedMatchesLegacyPairAtEveryWidth)
{
    const AppParams &fg = Catalog::byName("429.mcf");
    const AppParams &bg = Catalog::byName("462.libquantum");
    for (const unsigned fg_ways : {3u, 8u}) {
        PairOptions po;
        po.scale = kTestScale;
        const SplitMasks m = splitWays(fg_ways, 12);
        po.fgMask = m.fg;
        po.bgMask = m.bg;
        const PairResult legacy = runPair(fg, bg, po);

        NAppOptions no;
        no.scale = kTestScale;
        no.biasedFgWays = fg_ways;
        const NAppRunResult napp =
            runNApp(pairAsMembers(fg, bg), NPolicy::Biased, no);
        expectBitIdentical(legacy, napp, "biased");
    }
}

TEST(NAppDifferential, DynamicMatchesLegacyPair)
{
    const AppParams &fg = Catalog::byName("471.omnetpp");
    const AppParams &bg = Catalog::byName("streamcluster");

    PairOptions po;
    po.scale = kTestScale;
    const SplitMasks m = policyMasks(Policy::Dynamic, 12);
    po.fgMask = m.fg;
    po.bgMask = m.bg;
    DynamicPartitioner ctrl(AppId{0}, std::vector<AppId>{1});
    po.controller = &ctrl;
    const PairResult legacy = runPair(fg, bg, po);

    NAppOptions no;
    no.scale = kTestScale;
    // Both controllers take their probe ceiling, 12 - 1 = 11 ways, from
    // the stock machine, and runNApp's static starting split is that
    // ceiling too, so the two walk identical trajectories.
    const NAppRunResult napp =
        runNApp(pairAsMembers(fg, bg), NPolicy::Dynamic, no);
    expectBitIdentical(legacy, napp, "dynamic");
    EXPECT_EQ(ctrl.reallocations(), napp.remasks);
}

} // namespace
} // namespace capart
