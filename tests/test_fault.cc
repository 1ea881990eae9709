/**
 * @file
 * Tests for the fault-injection framework: deterministic seeded
 * decisions, telemetry corruption at the PerfMonitor seam, control-plane
 * failures, execution stalls, and the remaskers that drive the hardened
 * partitioner against them.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <tuple>

#include "core/dynamic_partitioner.hh"
#include "fault/fault_injector.hh"
#include "fault/resctrl_remasker.hh"
#include "sim/experiment.hh"
#include "workload/catalog.hh"

namespace capart
{
namespace
{

constexpr double kTestScale = 0.05;

PairOptions
faultyPairOptions()
{
    PairOptions opts;
    opts.scale = kTestScale;
    opts.system.perfWindow = 8e-6;
    const SplitMasks masks = splitWays(11, 12);
    opts.fgMask = masks.fg;
    opts.bgMask = masks.bg;
    return opts;
}

// ------------------------------------------------------- determinism --

TEST(FaultInjector, SameSeedSameDecisions)
{
    const FaultPlan plan = FaultPlan::noisyTelemetry(0.2);
    FaultInjector a(plan, 42);
    FaultInjector b(plan, 42);
    FaultInjector c(plan, 43);
    unsigned diverged = 0;
    for (std::uint64_t i = 0; i < 500; ++i) {
        PerfWindow wa, wb, wc;
        wa.insts = wb.insts = wc.insts = 1000;
        wa.mpki = wb.mpki = wc.mpki = 10.0;
        const bool ka = a.onWindowClose(0, i, wa);
        const bool kb = b.onWindowClose(0, i, wb);
        const bool kc = c.onWindowClose(0, i, wc);
        EXPECT_EQ(ka, kb) << "i=" << i;
        if (ka && kb) {
            EXPECT_EQ(std::isnan(wa.mpki), std::isnan(wb.mpki));
            if (!std::isnan(wa.mpki)) {
                EXPECT_EQ(wa.mpki, wb.mpki);
            }
        }
        if (ka != kc || (ka && kc && wa.mpki != wc.mpki &&
                         !(std::isnan(wa.mpki) && std::isnan(wc.mpki))))
            ++diverged;
    }
    EXPECT_EQ(a.stats().windowsDropped, b.stats().windowsDropped);
    EXPECT_EQ(a.stats().windowsCorrupted, b.stats().windowsCorrupted);
    EXPECT_GT(diverged, 0u) << "a different seed must differ somewhere";
}

TEST(FaultInjector, DecisionsAreStateless)
{
    // The verdict for (stream, index) must not depend on which other
    // windows were seen first — drops cannot shift later decisions.
    const FaultPlan plan = FaultPlan::noisyTelemetry(0.3);
    FaultInjector forward(plan, 7);
    FaultInjector alone(plan, 7);
    bool forward_verdicts[100];
    for (std::uint64_t i = 0; i < 100; ++i) {
        PerfWindow w;
        w.insts = 1000;
        w.mpki = 10.0;
        forward_verdicts[i] = forward.onWindowClose(0, i, w);
    }
    PerfWindow w;
    w.insts = 1000;
    w.mpki = 10.0;
    EXPECT_EQ(alone.onWindowClose(0, 57, w), forward_verdicts[57]);
}

TEST(FaultInjector, RatesRoughlyHonored)
{
    FaultPlan plan;
    plan.windowDropRate = 0.1;
    FaultInjector inj(plan, 1);
    for (std::uint64_t i = 0; i < 2000; ++i) {
        PerfWindow w;
        w.insts = 1000;
        w.mpki = 10.0;
        inj.onWindowClose(0, i, w);
    }
    const double rate =
        static_cast<double>(inj.stats().windowsDropped) / 2000.0;
    EXPECT_NEAR(rate, 0.1, 0.03);
}

// --------------------------------------------------- telemetry faults --

TEST(FaultInjector, CorruptionSpikesOnlyTheTarget)
{
    FaultPlan plan;
    plan.counterCorruptRate = 1.0;
    plan.spikeMultiplier = 10.0;
    plan.telemetryTarget = 0;
    FaultInjector inj(plan, 9);

    PerfWindow w;
    w.insts = 1000;
    w.llcMisses = 50;
    w.mpki = 50.0;
    ASSERT_TRUE(inj.onWindowClose(0, 0, w));
    EXPECT_DOUBLE_EQ(w.mpki, 500.0);
    EXPECT_EQ(w.llcMisses, 500u);

    PerfWindow other;
    other.insts = 1000;
    other.mpki = 50.0;
    ASSERT_TRUE(inj.onWindowClose(1, 0, other));
    EXPECT_DOUBLE_EQ(other.mpki, 50.0) << "stream 1 is not the target";
    EXPECT_EQ(inj.stats().windowsCorrupted, 1u);
}

TEST(FaultInjector, StaleReadsServePreviousCounters)
{
    FaultPlan plan;
    plan.staleRate = 1.0;
    FaultInjector inj(plan, 3);

    // First window: nothing delivered yet, so nothing to be stale from.
    PerfWindow first;
    first.insts = 111;
    first.mpki = 1.0;
    ASSERT_TRUE(inj.onWindowClose(0, 0, first));
    EXPECT_EQ(inj.stats().windowsStale, 0u);

    PerfWindow second;
    second.start = 1.0;
    second.end = 2.0;
    second.insts = 999;
    second.mpki = 99.0;
    ASSERT_TRUE(inj.onWindowClose(0, 1, second));
    EXPECT_EQ(inj.stats().windowsStale, 1u);
    EXPECT_EQ(second.insts, 111u) << "yesterday's counters";
    EXPECT_DOUBLE_EQ(second.mpki, 1.0);
    EXPECT_DOUBLE_EQ(second.start, 1.0) << "under today's timestamps";
}

TEST(FaultInjector, BlackoutDropsTheConfiguredRange)
{
    const FaultPlan plan = FaultPlan::telemetryBlackout(5);
    FaultInjector inj(plan, 11);
    for (std::uint64_t i = 0; i < 50; ++i) {
        PerfWindow w;
        w.insts = 1000;
        w.mpki = 10.0;
        EXPECT_EQ(inj.onWindowClose(0, i, w), i < 5) << "i=" << i;
    }
    EXPECT_EQ(inj.stats().windowsDropped, 45u);
}

TEST(PerfMonitorIntegration, DroppedWindowsAreCountedNotPublished)
{
    FaultPlan plan;
    plan.windowDropRate = 0.5;
    FaultInjector inj(plan, 5);

    PerfMonitor mon(1.0);
    mon.setFaultHook(&inj, 0);
    for (unsigned i = 1; i <= 200; ++i)
        mon.record(static_cast<Seconds>(i), 1000, 100, 10);
    EXPECT_GT(mon.droppedWindows(), 50u);
    EXPECT_LT(mon.droppedWindows(), 150u);
    EXPECT_EQ(mon.windowCount() + mon.droppedWindows(), 200u);
    EXPECT_EQ(mon.droppedWindows(), inj.stats().windowsDropped);
}

// --------------------------------------------------- execution faults --

TEST(FaultInjector, StallsSlowTheRunDown)
{
    const auto run = [](double stall_rate) {
        PairOptions opts = faultyPairOptions();
        FaultPlan plan;
        plan.stallRate = stall_rate;
        plan.stallFactor = 6.0;
        FaultInjector inj(plan, 21);
        opts.prepare = [&inj](System &sys, AppId, AppId) {
            inj.attach(sys);
        };
        return runPair(Catalog::byName("ferret").scaled(1.0),
                       Catalog::byName("dedup").scaled(1.0), opts)
            .fgTime;
    };
    const Seconds clean = run(0.0);
    const Seconds stalled = run(0.10);
    EXPECT_GT(stalled, clean * 1.05)
        << "10% of quanta at 6x cost must be visible in the runtime";
}

// ------------------------------------------------------- remask faults --

TEST(FaultyRemasker, DelayedWritesLandAfterTick)
{
    FaultPlan plan;
    plan.remaskDelayRate = 1.0;
    plan.remaskDelayWindows = 2;
    FaultInjector inj(plan, 13);
    FaultyRemasker rm(inj);

    SystemConfig cfg;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);

    const SplitMasks masks = splitWays(8, 12);
    EXPECT_TRUE(rm.apply(sys, fg, {bg}, masks))
        << "a delayed write still reports success";
    EXPECT_TRUE(rm.pendingDelayed());
    EXPECT_EQ(sys.wayMask(fg), WayMask::all(12)) << "not yet applied";

    rm.tick(sys); // wait 2
    rm.tick(sys); // wait 1
    EXPECT_TRUE(rm.pendingDelayed());
    rm.tick(sys); // lands
    EXPECT_FALSE(rm.pendingDelayed());
    EXPECT_EQ(sys.wayMask(fg).count(), 8u);
    EXPECT_EQ(sys.wayMask(bg).count(), 4u);
    EXPECT_EQ(inj.stats().remaskDelays, 1u);
}

TEST(ResctrlRemaskerTest, DrivesGroupsAndSurfacesFailures)
{
    SystemConfig cfg;
    System sys(cfg);
    const AppId fg = sys.addAppOnCores(
        Catalog::byName("ferret").scaled(0.02), 0, 2);
    const AppId bg = sys.addAppOnCores(
        Catalog::byName("dedup").scaled(0.02), 2, 2);
    ResctrlFs fs(sys);
    ASSERT_EQ(fs.createGroup("fg"), RctlStatus::Ok);
    ASSERT_EQ(fs.createGroup("bg"), RctlStatus::Ok);
    ASSERT_EQ(fs.assignApp("fg", fg), RctlStatus::Ok);
    ASSERT_EQ(fs.assignApp("bg", bg), RctlStatus::Ok);

    ResctrlRemasker rm(fs, "fg", "bg");
    EXPECT_TRUE(rm.apply(sys, fg, {bg}, splitWays(8, 12)));
    EXPECT_EQ(sys.wayMask(fg).count(), 8u);
    EXPECT_EQ(sys.wayMask(bg).count(), 4u);

    // Break the control plane: the failure surfaces as apply() == false
    // and no mask is torn.
    FaultPlan plan;
    plan.remaskFailRate = 1.0;
    FaultInjector inj(plan, 17);
    fs.setFaultHook(&inj);
    EXPECT_FALSE(rm.apply(sys, fg, {bg}, splitWays(4, 12)));
    EXPECT_EQ(sys.wayMask(fg).count(), 8u);
    EXPECT_GT(rm.writeFailures(), 0u);

    // Heal it: the same request goes through (idempotent retry).
    fs.setFaultHook(nullptr);
    EXPECT_TRUE(rm.apply(sys, fg, {bg}, splitWays(4, 12)));
    EXPECT_EQ(sys.wayMask(fg).count(), 4u);
    EXPECT_EQ(sys.wayMask(bg).count(), 8u);
}

// ------------------------------------- end-to-end hardened behaviour --

TEST(HardenedPartitioner, FaultyRunIsDeterministic)
{
    const auto run = [](std::uint64_t seed) {
        PairOptions opts = faultyPairOptions();
        FaultPlan plan = FaultPlan::noisyTelemetry(0.05);
        plan.remaskFailRate = 0.05;
        FaultInjector inj(plan, seed);
        FaultyRemasker rm(inj);
        DynamicPartitioner ctrl(0, {1}, DynamicPartitionerConfig{}, &rm);
        opts.controller = &ctrl;
        opts.prepare = [&inj](System &sys, AppId, AppId) {
            inj.attach(sys);
        };
        const PairResult r = runPair(Catalog::byName("429.mcf").scaled(1.0),
                                     Catalog::byName("dedup").scaled(1.0),
                                     opts);
        return std::make_tuple(r.fgTime, r.bg.retired, ctrl.fgWays(),
                               ctrl.reallocations(),
                               ctrl.rejectedSamples(),
                               ctrl.remaskFailures());
    };
    EXPECT_EQ(run(1234), run(1234))
        << "same plan + seed must be bit-identical";
}

TEST(HardenedPartitioner, SurvivesModerateChaos)
{
    PairOptions opts = faultyPairOptions();
    FaultPlan plan = FaultPlan::noisyTelemetry(0.05);
    plan.remaskFailRate = 0.05;
    FaultInjector inj(plan, 99);
    FaultyRemasker rm(inj);
    DynamicPartitioner ctrl(0, {1}, DynamicPartitionerConfig{}, &rm);
    opts.controller = &ctrl;
    opts.prepare = [&inj](System &sys, AppId, AppId) { inj.attach(sys); };

    const PairResult r = runPair(Catalog::byName("429.mcf").scaled(1.0),
                                 Catalog::byName("dedup").scaled(1.0),
                                 opts);
    EXPECT_FALSE(r.timedOut);
    EXPECT_GT(inj.stats().windowsDropped + inj.stats().windowsCorrupted +
                  inj.stats().windowsNaN,
              0u)
        << "the chaos must actually have happened";
    // 5% noise is routine weather: the controller must keep operating
    // dynamically rather than living in the fallback.
    EXPECT_EQ(ctrl.mode(), ControlMode::Dynamic);
    EXPECT_GT(ctrl.rejectedSamples(), 0u);
    EXPECT_GE(ctrl.fgWays(), 2u);
    EXPECT_LE(ctrl.fgWays(), 11u);
}

} // namespace
} // namespace capart
