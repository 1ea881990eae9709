/**
 * @file
 * Tests for the paper's contribution: phase detection (Algorithm 6.1),
 * the dynamic partitioner (Algorithm 6.2), static policies, and the
 * co-scheduler facade.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "core/co_scheduler.hh"
#include "core/dynamic_partitioner.hh"
#include "core/napp.hh"
#include "core/phase_detector.hh"
#include "core/slo_monitor.hh"
#include "core/static_policies.hh"
#include "obs/metrics.hh"
#include "obs/obs.hh"
#include "obs/timeseries.hh"
#include "workload/catalog.hh"

namespace capart
{
namespace
{

constexpr double kTestScale = 0.03;

// ----------------------------------------------------- PhaseDetector --

TEST(PhaseDetector, StableStreamNoEvents)
{
    PhaseDetector det;
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(det.step(50.0), PhaseEvent::Stable);
    EXPECT_EQ(det.phaseChanges(), 0u);
    EXPECT_NEAR(det.avgMpki(), 50.0, 1e-9);
}

TEST(PhaseDetector, SmallJitterTolerated)
{
    PhaseDetector det;
    // +-1% wobble around 100 stays under THR1 = 2%.
    double mpki = 100.0;
    for (int i = 0; i < 50; ++i) {
        mpki = (i % 2) ? 100.5 : 99.5;
        EXPECT_EQ(det.step(mpki), PhaseEvent::Stable) << "i=" << i;
    }
    EXPECT_EQ(det.phaseChanges(), 0u);
}

TEST(PhaseDetector, StepChangeDetected)
{
    PhaseDetector det;
    for (int i = 0; i < 20; ++i)
        det.step(40.0);
    EXPECT_EQ(det.step(150.0), PhaseEvent::NewPhase);
    EXPECT_TRUE(det.inTransition());
    // Settles once samples stabilize near the new level.
    EXPECT_EQ(det.step(150.0), PhaseEvent::Stable);
    EXPECT_FALSE(det.inTransition());
    EXPECT_EQ(det.phaseChanges(), 1u);
}

TEST(PhaseDetector, RampKeepsTransitionOpen)
{
    PhaseDetector det;
    for (int i = 0; i < 10; ++i)
        det.step(40.0);
    EXPECT_EQ(det.step(60.0), PhaseEvent::NewPhase);
    // Keep moving by >2% per window: still in transition.
    EXPECT_EQ(det.step(90.0), PhaseEvent::InTransition);
    EXPECT_EQ(det.step(130.0), PhaseEvent::InTransition);
    EXPECT_EQ(det.step(131.0), PhaseEvent::Stable);
    EXPECT_EQ(det.phaseChanges(), 1u);
}

TEST(PhaseDetector, CountsMultiplePhaseChanges)
{
    PhaseDetector det;
    auto run_level = [&](double mpki) {
        for (int i = 0; i < 10; ++i)
            det.step(mpki);
    };
    run_level(40);
    run_level(150);
    run_level(40);
    run_level(150);
    EXPECT_EQ(det.phaseChanges(), 3u);
}

TEST(PhaseDetector, ResetClearsState)
{
    PhaseDetector det;
    det.step(40.0);
    det.step(150.0);
    det.reset();
    EXPECT_EQ(det.phaseChanges(), 0u);
    EXPECT_EQ(det.step(70.0), PhaseEvent::Stable) << "fresh bootstrap";
}

TEST(PhaseDetector, NearZeroMpkiDoesNotOscillate)
{
    // Relative deltas on tiny MPKI would explode without the floor.
    PhaseDetector det;
    det.step(0.01);
    for (int i = 0; i < 20; ++i)
        EXPECT_EQ(det.step((i % 2) ? 0.012 : 0.008), PhaseEvent::Stable);
}

TEST(PhaseDetector, SingleSampleHistorySuffices)
{
    // After just one sample the average exists and deviations from it
    // are detectable — no warm-up period hides an early phase change.
    PhaseDetector det;
    EXPECT_EQ(det.step(100.0), PhaseEvent::Stable) << "bootstrap";
    EXPECT_EQ(det.step(200.0), PhaseEvent::NewPhase);
    EXPECT_EQ(det.phaseChanges(), 1u);
    EXPECT_NEAR(det.avgMpki(), 200.0, 1e-12)
        << "the new phase's average restarts at the new level";
}

TEST(PhaseDetector, Thr1BoundaryIsExclusive)
{
    // A deviation of exactly THR1 does NOT start a phase change (the
    // comparison is strict); the next representable step above does.
    {
        PhaseDetector det;
        det.step(100.0);
        EXPECT_EQ(det.step(102.0), PhaseEvent::Stable)
            << "delta == THR1 exactly must stay stable";
    }
    {
        PhaseDetector det;
        det.step(100.0);
        EXPECT_EQ(det.step(102.1), PhaseEvent::NewPhase)
            << "delta just above THR1 must trigger";
    }
}

TEST(PhaseDetector, Thr2SettleBoundaryIsExclusive)
{
    // Settling requires the deviation to fall strictly below THR2:
    // sitting exactly on the boundary keeps the transition open.
    PhaseDetector det;
    det.step(100.0);
    EXPECT_EQ(det.step(150.0), PhaseEvent::NewPhase);
    // avg restarted at 150; 153 is exactly 2% away.
    EXPECT_EQ(det.step(153.0), PhaseEvent::InTransition);
    // Still moving tracks the level (avg := 153); zero delta settles.
    EXPECT_EQ(det.step(153.0), PhaseEvent::Stable);
    EXPECT_FALSE(det.inTransition());
    EXPECT_EQ(det.phaseChanges(), 1u);
}

// ----------------------------------------------- static policy masks --

TEST(StaticPolicies, PolicyNames)
{
    EXPECT_STREQ(policyName(Policy::Shared), "shared");
    EXPECT_STREQ(policyName(Policy::Fair), "fair");
    EXPECT_STREQ(policyName(Policy::Biased), "biased");
    EXPECT_STREQ(policyName(Policy::Dynamic), "dynamic");
}

TEST(StaticPolicies, MaskShapes)
{
    const SplitMasks shared = policyMasks(Policy::Shared, 12);
    EXPECT_EQ(shared.fg, WayMask::all(12));
    EXPECT_EQ(shared.bg, WayMask::all(12));

    const SplitMasks fair = policyMasks(Policy::Fair, 12);
    EXPECT_EQ(fair.fg.count(), 6u);
    EXPECT_EQ(fair.bg.count(), 6u);

    const SplitMasks biased = policyMasks(Policy::Biased, 12, 9);
    EXPECT_EQ(biased.fg.count(), 9u);
    EXPECT_EQ(biased.bg.count(), 3u);

    const SplitMasks dyn = policyMasks(Policy::Dynamic, 12);
    EXPECT_EQ(dyn.fg.count(), 11u);
    EXPECT_EQ(dyn.bg.count(), 1u);
}

TEST(StaticPolicies, BiasedSearchImplementsThePaperCriterion)
{
    PairOptions pair;
    pair.scale = kTestScale;
    const BiasedSearchResult r = findBiasedPartition(
        Catalog::byName("471.omnetpp"), Catalog::byName("streamcluster"),
        pair);
    ASSERT_EQ(r.sweep.size(), 11u);
    EXPECT_EQ(r.masks.fg.count(), r.fgWays);
    EXPECT_GT(r.bgThroughput, 0.0);

    // §5.2: among allocations with minimum foreground degradation,
    // the one that maximizes background performance.
    double best_time = 1e30;
    for (const auto &pt : r.sweep)
        best_time = std::min(best_time, pt.fgTime);
    EXPECT_LE(r.fgTime, best_time * (1.0 + kBiasedTolerance) + 1e-12);
    for (const auto &pt : r.sweep) {
        if (pt.fgTime <= best_time * (1.0 + kBiasedTolerance)) {
            EXPECT_GE(r.bgThroughput, pt.bgThroughput);
        }
    }
}

TEST(StaticPolicies, BiasedSearchGivesCacheAwayWhenFgInsensitive)
{
    PairOptions pair;
    pair.scale = kTestScale;
    const BiasedSearchResult r =
        findBiasedPartition(Catalog::byName("swaptions"),
                            Catalog::byName("471.omnetpp"), pair);
    // swaptions does not need LLC: the search should hand most ways to
    // the cache-hungry background.
    EXPECT_LE(r.fgWays, 4u);
}

// -------------------------------------------------- DynamicPartitioner --

TEST(DynamicPartitioner, ShrinksWhenMpkiInsensitive)
{
    SystemConfig cfg;
    cfg.perfWindow = 8e-6;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("swaptions").scaled(0.3), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("471.omnetpp").scaled(0.3), 2, 2, true);

    DynamicPartitioner ctrl(fg, {bg});
    sys.setController(&ctrl);
    sys.run();

    // swaptions' MPKI never reacts: the controller must walk the
    // allocation down to the floor.
    EXPECT_EQ(ctrl.fgWays(), 2u);
    EXPECT_GT(ctrl.reallocations(), 5u);
    EXPECT_FALSE(ctrl.history().empty());
}

TEST(DynamicPartitioner, HoldsCapacityForCacheHungryFg)
{
    SystemConfig cfg;
    cfg.perfWindow = 8e-6;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("471.omnetpp").scaled(0.08), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("streamcluster").scaled(0.08), 2, 2, true);

    DynamicPartitioner ctrl(fg, {bg});
    sys.setController(&ctrl);
    sys.run();

    // omnetpp's MPKI reacts to shrinkage: the controller must keep a
    // healthy allocation rather than walking to the floor.
    EXPECT_GE(ctrl.fgWays(), 4u);
}

TEST(DynamicPartitioner, InstallsComplementaryMasks)
{
    SystemConfig cfg;
    cfg.perfWindow = 8e-6;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.05), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.05), 2, 2, true);
    DynamicPartitioner ctrl(fg, {bg});
    sys.setController(&ctrl);
    sys.run();

    const WayMask fg_mask = sys.wayMask(fg);
    const WayMask bg_mask = sys.wayMask(bg);
    EXPECT_EQ((fg_mask & bg_mask).count(), 0u);
    EXPECT_EQ((fg_mask | bg_mask), WayMask::all(12));
    EXPECT_EQ(fg_mask.count(), ctrl.fgWays());
}

TEST(DynamicPartitioner, HistoryRecordsMpkiTrace)
{
    SystemConfig cfg;
    cfg.perfWindow = 8e-6;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("429.mcf").scaled(0.1), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.1), 2, 2, true);
    DynamicPartitioner ctrl(fg, {bg});
    sys.setController(&ctrl);
    sys.run();

    ASSERT_GT(ctrl.history().size(), 20u);
    // Time stamps increase; ways stay within configured bounds.
    Seconds prev = -1.0;
    for (const auto &ev : ctrl.history()) {
        EXPECT_GT(ev.time, prev);
        prev = ev.time;
        EXPECT_GE(ev.fgWays, 2u);
        EXPECT_LE(ev.fgWays, 11u);
    }
    // mcf has phases: the detector must fire at least once.
    EXPECT_GE(ctrl.detector().phaseChanges(), 1u);
}

// -------------------------------- hardening: validation and watchdog --

TEST(DynamicPartitionerConfig, RejectsImpossibleConfigurations)
{
    const auto make = [](const DynamicPartitionerConfig &cfg) {
        DynamicPartitioner ctrl(0, {1}, cfg);
        (void)ctrl;
    };
    DynamicPartitionerConfig cfg;
    cfg.thr3 = 0.0;
    EXPECT_DEATH(make(cfg), "thr3 must be positive");
    cfg = {};
    cfg.detector.thr1 = -0.1;
    EXPECT_DEATH(make(cfg), "thr1/thr2 must be positive");
}

namespace
{

/** Drops every window of the hooked stream (dead telemetry). */
struct DropAllWindows : WindowFaultHook
{
    bool onWindowClose(std::uint64_t, std::uint64_t, PerfWindow &) override
    {
        return false;
    }
};

/** A control plane whose writes never land. */
struct BrokenRemasker : Remasker
{
    unsigned attempts = 0;
    bool
    apply(System &, AppId, const std::vector<AppId> &,
          const SplitMasks &) override
    {
        ++attempts;
        return false;
    }
};

/** The direct control plane, recording each foreground allocation. */
struct RecordingRemasker : Remasker
{
    std::vector<unsigned> fgWays;
    bool
    apply(System &sys, AppId fg, const std::vector<AppId> &bgs,
          const SplitMasks &masks) override
    {
        fgWays.push_back(masks.fg.count());
        return DirectRemasker{}.apply(sys, fg, bgs, masks);
    }
};

/** A synthetic FG window with well-formed timestamps. */
PerfWindow
fgWindow(unsigned index, double mpki)
{
    PerfWindow w;
    w.start = static_cast<Seconds>(index);
    w.end = w.start + 1.0;
    w.insts = 1000000;
    w.llcAccesses = 2000;
    w.llcMisses = static_cast<std::uint64_t>(mpki * 1000);
    w.mpki = mpki;
    w.apki = 2.0;
    return w;
}

} // namespace

TEST(DynamicPartitioner, WatchdogFallsBackOnDeadFgTelemetry)
{
    SystemConfig cfg;
    cfg.perfWindow = 8e-6;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("429.mcf").scaled(0.1), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.1), 2, 2, true);

    DropAllWindows dead;
    sys.setWindowFaultHook(fg, &dead);
    DynamicPartitioner ctrl(fg, {bg});
    sys.setController(&ctrl);
    sys.run();

    // ISSUE acceptance: with persistent telemetry failure the watchdog
    // must settle on the fair partition within 10 windows.
    EXPECT_EQ(ctrl.mode(), ControlMode::Fallback);
    EXPECT_EQ(ctrl.fgWays(), 6u);
    EXPECT_EQ(sys.wayMask(fg).count(), 6u);
    EXPECT_EQ(sys.wayMask(bg).count(), 6u);
    EXPECT_EQ((sys.wayMask(fg) & sys.wayMask(bg)).count(), 0u);
    ASSERT_EQ(countHealthEvents(ctrl.healthLog(),
                                HealthEventKind::FallbackEntered),
              1u);
    for (const HealthEvent &ev : ctrl.healthLog()) {
        if (ev.kind == HealthEventKind::FallbackEntered) {
            EXPECT_LE(ev.count, 10u) << "settled too slowly";
        }
    }
}

TEST(DynamicPartitioner, RecoversWhenTelemetryReturns)
{
    SystemConfig scfg;
    System sys(scfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);

    DynamicPartitioner ctrl(fg, {bg});

    // Healthy start: a couple of valid foreground windows.
    unsigned t = 0;
    ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    EXPECT_EQ(ctrl.mode(), ControlMode::Dynamic);

    // Foreground telemetry goes silent; the background's windows keep
    // the silence clock ticking until the watchdog trips.
    for (unsigned i = 0; i < DynamicPartitioner::kTelemetryTimeoutWindows;
         ++i) {
        EXPECT_EQ(ctrl.mode(), ControlMode::Dynamic);
        ctrl.onWindow(sys, bg, fgWindow(t + i, 5.0));
    }
    EXPECT_EQ(ctrl.mode(), ControlMode::Fallback);
    EXPECT_EQ(ctrl.fgWays(), 6u);
    EXPECT_EQ(sys.wayMask(fg).count(), 6u);

    // The signal returns and stays stable: dynamic control resumes and
    // re-probes from the top, as on a phase start.
    t += DynamicPartitioner::kTelemetryTimeoutWindows;
    for (unsigned i = 0; i < DynamicPartitioner::kRecoveryWindows; ++i)
        ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    EXPECT_EQ(ctrl.mode(), ControlMode::Dynamic);
    EXPECT_EQ(ctrl.fgWays(), 11u) << "recovery re-probes from the top";
    EXPECT_EQ(countHealthEvents(ctrl.healthLog(),
                                HealthEventKind::DynamicResumed),
              1u);
}

TEST(DynamicPartitioner, ProbeCeilingComesFromTheMachine)
{
    // The background keeps one way of any LLC, not of the paper's 12.
    System sys(nAppSystem(4, 20));
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);
    RecordingRemasker rm;
    DynamicPartitioner ctrl(fg, {bg}, DynamicPartitionerConfig{}, &rm);
    ctrl.onWindow(sys, fg, fgWindow(0, 10.0));
    // The first window installs the ceiling, then probes one way down.
    EXPECT_EQ(rm.fgWays, (std::vector<unsigned>{19, 18}));
    EXPECT_EQ(sys.wayMask(fg).count() + sys.wayMask(bg).count(), 20u);

    // Three ways leave the probe no room below its ceiling.
    EXPECT_DEATH(
        {
            System small(nAppSystem(4, 3));
            DynamicPartitioner tiny(0, {1});
            tiny.onWindow(small, 0, fgWindow(0, 10.0));
        },
        "at least 4 ways");
}

TEST(DynamicPartitioner, WatchdogFallsBackOnBrokenControlPlane)
{
    SystemConfig cfg;
    cfg.perfWindow = 8e-6;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("429.mcf").scaled(0.1), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.1), 2, 2, true);

    BrokenRemasker broken;
    DynamicPartitioner ctrl(fg, {bg}, DynamicPartitionerConfig{},
                            &broken);
    sys.setController(&ctrl);
    sys.run();

    // Every dynamic write failed; the watchdog must bypass the broken
    // remasker and land the fair split through the direct path.
    EXPECT_EQ(ctrl.mode(), ControlMode::Fallback);
    EXPECT_EQ(ctrl.fgWays(), 6u);
    EXPECT_EQ(sys.wayMask(fg).count(), 6u);
    EXPECT_GE(ctrl.remaskFailures(), 4u);
    EXPECT_EQ(ctrl.remaskFailures(), ctrl.remaskAttempts());
    EXPECT_GE(countHealthEvents(ctrl.healthLog(),
                                HealthEventKind::RemaskFailed),
              4u);
}

TEST(DynamicPartitioner, RejectsGarbageAndLoneSpikes)
{
    SystemConfig scfg;
    System sys(scfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);
    DynamicPartitioner ctrl(fg, {bg});

    unsigned t = 0;
    for (int i = 0; i < 4; ++i)
        ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    EXPECT_EQ(ctrl.rejectedSamples(), 0u);

    // NaN and empty windows are garbage regardless of level.
    PerfWindow nan_w = fgWindow(t++, 10.0);
    nan_w.mpki = std::numeric_limits<double>::quiet_NaN();
    ctrl.onWindow(sys, fg, nan_w);
    EXPECT_EQ(ctrl.rejectedSamples(), 1u);
    PerfWindow torn = fgWindow(t++, 10.0);
    torn.insts = 0; // misses without instructions: a torn counter read
    ctrl.onWindow(sys, fg, torn);
    EXPECT_EQ(ctrl.rejectedSamples(), 2u);

    // A lone 100x spike is quarantined as a counter glitch...
    ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    ctrl.onWindow(sys, fg, fgWindow(t++, 1000.0));
    EXPECT_EQ(ctrl.rejectedSamples(), 3u);
    ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));
    EXPECT_EQ(ctrl.mode(), ControlMode::Dynamic)
        << "isolated glitches must not trip the watchdog";

    // ...but two consecutive outliers confirm a genuine phase shift.
    const std::uint64_t rejected = ctrl.rejectedSamples();
    ctrl.onWindow(sys, fg, fgWindow(t++, 1000.0));
    ctrl.onWindow(sys, fg, fgWindow(t++, 1000.0));
    EXPECT_EQ(ctrl.rejectedSamples(), rejected + 1)
        << "the second outlier is real data and must pass";
    EXPECT_EQ(countHealthEvents(ctrl.healthLog(),
                                HealthEventKind::SampleRejected),
              ctrl.rejectedSamples());
}

TEST(DynamicPartitioner, ZeroInstructionWindowGuard)
{
    // A window with zero instructions *and* zero misses is a real idle
    // interval: MPKI 0 is data, not garbage. Zero instructions with
    // nonzero misses is arithmetically impossible on healthy counters
    // and must be rejected before it poisons the running average.
    SystemConfig scfg;
    System sys(scfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);
    DynamicPartitioner ctrl(fg, {bg});

    unsigned t = 0;
    for (int i = 0; i < 3; ++i)
        ctrl.onWindow(sys, fg, fgWindow(t++, 10.0));

    PerfWindow idle = fgWindow(t++, 0.0);
    idle.insts = 0;
    idle.llcAccesses = 0;
    idle.llcMisses = 0;
    ctrl.onWindow(sys, fg, idle);
    EXPECT_EQ(ctrl.rejectedSamples(), 0u)
        << "an idle window is valid zero-MPKI data";

    PerfWindow torn = fgWindow(t++, 10.0);
    torn.insts = 0; // misses survived, instructions did not: torn read
    ctrl.onWindow(sys, fg, torn);
    EXPECT_EQ(ctrl.rejectedSamples(), 1u);

    PerfWindow negative = fgWindow(t++, 10.0);
    negative.mpki = -4.0;
    ctrl.onWindow(sys, fg, negative);
    EXPECT_EQ(ctrl.rejectedSamples(), 2u);
    EXPECT_EQ(ctrl.mode(), ControlMode::Dynamic);
}

// --------------------------------------------------------- CoScheduler --

TEST(CoScheduler, SummaryMetricsAreCoherent)
{
    CoScheduleOptions opts;
    opts.scale = kTestScale;
    CoScheduler cs(Catalog::byName("ferret"), Catalog::byName("dedup"),
                   opts);

    const ConsolidationSummary sh = cs.summarize(Policy::Shared);
    EXPECT_GT(sh.fgSlowdown, 0.9);
    EXPECT_LT(sh.fgSlowdown, 2.0);
    EXPECT_GT(sh.weightedSpeedup, 1.0)
        << "consolidating two saturating apps must beat sequential";
    EXPECT_LT(sh.energyVsSequential, 1.0)
        << "consolidation saves energy for these apps";
    EXPECT_GT(sh.bgThroughput, 0.0);
}

TEST(CoScheduler, BiasedProtectsAtLeastAsWellAsShared)
{
    CoScheduleOptions opts;
    opts.scale = kTestScale;
    CoScheduler cs(Catalog::byName("canneal"),
                   Catalog::byName("streamcluster"), opts);
    const ConsolidationSummary sh = cs.summarize(Policy::Shared);
    const ConsolidationSummary bi = cs.summarize(Policy::Biased);
    EXPECT_LE(bi.fgSlowdown, sh.fgSlowdown * 1.02);
}

TEST(CoScheduler, DynamicTracksBiasedProtection)
{
    CoScheduleOptions opts;
    opts.scale = 0.05;
    opts.system.perfWindow = 8e-6;
    CoScheduler cs(Catalog::byName("429.mcf"),
                   Catalog::byName("dedup"), opts);
    const ConsolidationSummary bi = cs.summarize(Policy::Biased);
    const ConsolidationSummary dy = cs.summarize(Policy::Dynamic);
    // §6.4: dynamic holds foreground within a few percent of the best
    // static partition.
    EXPECT_LT(dy.fgSlowdown, bi.fgSlowdown + 0.06);
    EXPECT_NE(cs.lastDynamicController(), nullptr);
}

TEST(CoScheduler, CachesRepeatedQueries)
{
    CoScheduleOptions opts;
    opts.scale = kTestScale;
    CoScheduler cs(Catalog::byName("ferret"), Catalog::byName("batik"),
                   opts);
    const PairResult &a = cs.runPolicy(Policy::Shared, true);
    const PairResult &b = cs.runPolicy(Policy::Shared, true);
    EXPECT_EQ(&a, &b) << "same object: cached, not re-run";
}

/** Exact equality of two pair runs' results and per-app counters. */
void
expectSameRun(const PairResult &a, const PairResult &b)
{
    EXPECT_EQ(a.fgTime, b.fgTime);
    EXPECT_EQ(a.bgThroughput, b.bgThroughput);
    EXPECT_EQ(a.socketEnergy, b.socketEnergy);
    EXPECT_EQ(a.wallEnergy, b.wallEnergy);
    EXPECT_EQ(a.timedOut, b.timedOut);
    EXPECT_EQ(a.fg.retired, b.fg.retired);
    EXPECT_EQ(a.fg.cycles, b.fg.cycles);
    EXPECT_EQ(a.fg.llcAccesses, b.fg.llcAccesses);
    EXPECT_EQ(a.fg.llcMisses, b.fg.llcMisses);
    EXPECT_EQ(a.bg.retired, b.bg.retired);
    EXPECT_EQ(a.bg.cycles, b.bg.cycles);
    EXPECT_EQ(a.bg.llcAccesses, b.bg.llcAccesses);
    EXPECT_EQ(a.bg.llcMisses, b.bg.llcMisses);
}

/** Arms observability for one test and disarms it on every exit path. */
struct ObsOn
{
    ObsOn() { obs::setEnabled(true); }
    ~ObsOn() { obs::setEnabled(false); }
};

TEST(CoScheduler, BiasedRunReusesTheSearchWinnerEvenWhenMonitored)
{
    const ObsOn obs_on;
    const obs::Counter &quanta = obs::metrics().counter("sim.quanta");

    // The SLO monitor evaluates the winning run's recorded windows, so
    // monitoring adds no simulation.
    for (const bool monitored : {false, true}) {
        CoScheduleOptions opts;
        opts.scale = kTestScale;
        opts.monitorSlo = monitored;
        CoScheduler cs(Catalog::byName("canneal"),
                       Catalog::byName("streamcluster"), opts);
        const BiasedSearchResult &search = cs.biased();
        cs.fgSoloHalf(); // the monitor's baseline, simulated up front
        const std::uint64_t before = quanta.value();
        const PairResult &run = cs.runPolicy(Policy::Biased, true);
        EXPECT_EQ(quanta.value(), before)
            << "the search already simulated the winning split"
            << (monitored ? " (monitored)" : "");
        expectSameRun(run, search.run);
        if (monitored) {
            ASSERT_NE(cs.lastSloMonitor(), nullptr);
            EXPECT_GT(cs.lastSloMonitor()->windows(), 0u);
        } else {
            EXPECT_EQ(cs.lastSloMonitor(), nullptr);
        }
    }
    obs::timeseries().clear();
}

// ---------------------------------------------------------- SloMonitor --

/**
 * A window whose IPS is baseline / slowdown: the monitor should
 * estimate exactly @p slowdown from it.
 */
PerfWindow
sloWindow(double slowdown, double baseline_ips = 1e9)
{
    PerfWindow w;
    w.start = 0.0;
    w.end = 1e-3;
    w.insts = static_cast<Insts>(baseline_ips / slowdown * 1e-3);
    return w;
}

TEST(SloMonitor, IgnoresWindowsBeforeBaselineAndUnusableWindows)
{
    SloMonitor mon;
    EXPECT_EQ(mon.onWindow(0.0, sloWindow(2.0)), SloTransition::None);
    EXPECT_EQ(mon.windows(), 0u) << "no baseline yet";

    mon.setBaseline(1e9);
    PerfWindow empty;
    EXPECT_EQ(mon.onWindow(0.0, empty), SloTransition::None);
    EXPECT_EQ(mon.windows(), 0u) << "zero-span window must not count";
}

TEST(SloMonitor, EstimatesSlowdownPerWindow)
{
    SloMonitor mon;
    mon.setBaseline(1e9);
    mon.onWindow(0.0, sloWindow(1.10));
    EXPECT_NEAR(mon.lastSlowdown(), 1.10, 1e-3);
    // burn = (slowdown - 1) / (kObjective - 1) = 0.10 / 0.02 = 5.
    EXPECT_NEAR(mon.shortBurn(), 5.0, 0.1);
}

TEST(SloMonitor, SingleBadWindowDoesNotBreach)
{
    SloMonitor mon;
    mon.setBaseline(1e9);
    EXPECT_EQ(mon.onWindow(0.0, sloWindow(1.50)), SloTransition::None)
        << "one burning window is below kConfirmWindows";
    EXPECT_EQ(mon.onWindow(1e-3, sloWindow(1.00)), SloTransition::None);
    EXPECT_EQ(mon.onWindow(2e-3, sloWindow(1.50)), SloTransition::None)
        << "a second lone spike must not flap into breach";
    EXPECT_FALSE(mon.inBreach());
    EXPECT_EQ(mon.breaches(), 0u);
}

TEST(SloMonitor, SustainedBurnBreachesThenRecovers)
{
    SloMonitor mon;
    mon.setBaseline(1e9);

    // Sustained 10% slowdown against a 2% SLO: breach confirmed on the
    // second consecutive burning evaluation (longWindows mean needs a
    // couple of windows to climb past the threshold too).
    SloTransition tr = SloTransition::None;
    unsigned breach_at = 0;
    for (unsigned i = 0; i < 8; ++i) {
        tr = mon.onWindow(i * 1e-3, sloWindow(1.10));
        if (tr == SloTransition::Breach) {
            breach_at = i;
            break;
        }
    }
    ASSERT_EQ(tr, SloTransition::Breach);
    EXPECT_EQ(breach_at + 1, SloMonitor::kConfirmWindows)
        << "a breach needs kConfirmWindows burning windows";
    EXPECT_TRUE(mon.inBreach());
    EXPECT_EQ(mon.breaches(), 1u);

    // Healthy again: recovery only after kRecoveryWindows clean windows.
    unsigned clean = 0;
    tr = SloTransition::None;
    for (unsigned i = 0; i < 16 && tr != SloTransition::Recovered; ++i) {
        tr = mon.onWindow((8 + i) * 1e-3, sloWindow(1.00));
        ++clean;
    }
    ASSERT_EQ(tr, SloTransition::Recovered);
    EXPECT_EQ(clean, SloMonitor::kRecoveryWindows)
        << "recovery needs kRecoveryWindows clean windows";
    EXPECT_FALSE(mon.inBreach());
    EXPECT_EQ(mon.breaches(), 1u) << "recovery declares no new breach";
    EXPECT_GT(mon.breachWindows(), 0u);
    EXPECT_LT(mon.breachWindows(), mon.windows());
}

TEST(SloMonitor, JournalRecordsEveryTransitionUpToTheLastWindow)
{
    const ObsOn obs_on;
    obs::timeseries().clear();
    SloMonitor mon;
    mon.setBaseline(1e9);

    // Burn into a breach, recover, then burn again until the last
    // window fed declares the second breach.
    SloTransition last = SloTransition::None;
    std::uint64_t recoveries = 0;
    double now = 0.0;
    const auto feed_until = [&](double slowdown, SloTransition want) {
        for (unsigned i = 0; i < 32 && last != want; ++i) {
            last = mon.onWindow(now, sloWindow(slowdown));
            now += 1e-3;
            recoveries += last == SloTransition::Recovered;
        }
        ASSERT_EQ(last, want);
    };
    feed_until(1.10, SloTransition::Breach);
    feed_until(1.00, SloTransition::Recovered);
    feed_until(1.10, SloTransition::Breach);
    ASSERT_EQ(mon.breaches(), 2u);
    ASSERT_EQ(recoveries, 1u);

    // Each breach is a 0->1 change of in_breach between the journaled
    // records and each recovery a 1->0 change, the last window's breach
    // included.
    std::uint64_t records = 0, rises = 0, falls = 0, breach_records = 0;
    double prev = 0.0;
    for (const obs::JournalEntry &e :
         obs::timeseries().drainScope().journal) {
        if (e.kind != "slo")
            continue;
        const double in_breach = e.field("in_breach");
        ++records;
        rises += prev == 0.0 && in_breach == 1.0;
        falls += prev == 1.0 && in_breach == 0.0;
        breach_records += in_breach == 1.0;
        EXPECT_EQ(e.rule == "breach", in_breach == 1.0);
        prev = in_breach;
    }
    EXPECT_EQ(records, mon.windows());
    EXPECT_EQ(rises, mon.breaches());
    EXPECT_EQ(falls, recoveries);
    EXPECT_EQ(breach_records, mon.breachWindows());
    EXPECT_EQ(prev, 1.0) << "the last record shows the breach it declared";
}

TEST(CoScheduler, SloMonitoringIsPureObservation)
{
    CoScheduleOptions plain;
    plain.scale = kTestScale;
    CoScheduler cs_plain(Catalog::byName("ferret"),
                         Catalog::byName("dedup"), plain);
    const ConsolidationSummary a = cs_plain.summarize(Policy::Shared);
    EXPECT_EQ(cs_plain.lastSloMonitor(), nullptr);

    CoScheduleOptions monitored = plain;
    monitored.monitorSlo = true;
    CoScheduler cs_mon(Catalog::byName("ferret"),
                       Catalog::byName("dedup"), monitored);
    const ConsolidationSummary b = cs_mon.summarize(Policy::Shared);

    // Bit-identical results: the monitor observes, never actuates.
    EXPECT_EQ(a.fgSlowdown, b.fgSlowdown);
    EXPECT_EQ(a.bgThroughput, b.bgThroughput);
    EXPECT_EQ(a.energyVsSequential, b.energyVsSequential);
    EXPECT_EQ(a.weightedSpeedup, b.weightedSpeedup);

    const SloMonitor *mon = cs_mon.lastSloMonitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_GT(mon->windows(), 0u);
    EXPECT_GT(mon->baseline(), 0.0);
}

TEST(CoScheduler, SloMonitorComposesWithDynamicController)
{
    CoScheduleOptions opts;
    opts.scale = 0.05;
    opts.system.perfWindow = 8e-6;
    opts.monitorSlo = true;
    CoScheduler cs(Catalog::byName("429.mcf"), Catalog::byName("dedup"),
                   opts);
    const ConsolidationSummary dy = cs.summarize(Policy::Dynamic);
    EXPECT_NE(cs.lastDynamicController(), nullptr);
    const SloMonitor *mon = cs.lastSloMonitor();
    ASSERT_NE(mon, nullptr);
    EXPECT_GT(mon->windows(), 0u)
        << "monitor must see FG windows even with an inner controller";
    (void)dy;
}

} // namespace
} // namespace capart
