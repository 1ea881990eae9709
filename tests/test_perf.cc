/**
 * @file
 * Unit tests for the windowed perf monitor the dynamic partitioning
 * framework polls (§6.2).
 */

#include <gtest/gtest.h>

#include "perf/perf_counters.hh"

namespace capart
{
namespace
{

TEST(PerfMonitor, ClosesWindowsOnSchedule)
{
    PerfMonitor mon(0.1); // 100 ms windows, like the paper
    mon.record(0.05, 1000, 50, 10);
    EXPECT_EQ(mon.windowCount(), 0u);
    mon.record(0.15, 1000, 50, 10); // crosses the 0.1 boundary
    ASSERT_EQ(mon.windowCount(), 1u);
    const PerfWindow &w = mon.windows()[0];
    EXPECT_DOUBLE_EQ(w.start, 0.0);
    EXPECT_DOUBLE_EQ(w.end, 0.1);
    EXPECT_EQ(w.insts, 1000u);
    EXPECT_DOUBLE_EQ(w.mpki, 10.0);
    EXPECT_DOUBLE_EQ(w.apki, 50.0);
}

TEST(PerfMonitor, EmptyWindowsForIdleGaps)
{
    PerfMonitor mon(0.1);
    mon.record(0.05, 1000, 0, 0);
    mon.record(0.45, 1000, 0, 0); // 3 boundaries crossed
    EXPECT_EQ(mon.windowCount(), 4u);
    EXPECT_EQ(mon.windows()[1].insts, 0u);
    EXPECT_DOUBLE_EQ(mon.windows()[1].mpki, 0.0);
}

TEST(PerfMonitor, MpkiTracksPhaseChange)
{
    PerfMonitor mon(0.1);
    // Low-MPKI phase, then high-MPKI phase.
    for (int i = 0; i < 5; ++i)
        mon.record(i * 0.02 + 0.01, 2000, 40, 4);
    for (int i = 0; i < 5; ++i)
        mon.record(0.1 + i * 0.02 + 0.01, 2000, 400, 200);
    mon.record(0.25, 1, 0, 0);
    ASSERT_GE(mon.windowCount(), 2u);
    EXPECT_LT(mon.windows()[0].mpki, 5.0);
    EXPECT_GT(mon.windows()[1].mpki, 15.0);
}

} // namespace
} // namespace capart
