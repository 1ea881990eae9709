/**
 * @file
 * Unit tests for the stats module: aggregates, tables, and
 * the sliding rate window used for bandwidth accounting.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "stats/fairness.hh"
#include "stats/rate_window.hh"
#include "stats/summary.hh"
#include "stats/table.hh"

namespace capart
{
namespace
{

TEST(RunningStat, BasicAggregates)
{
    RunningStat s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
}

TEST(RunningStat, EmptyIsZero)
{
    RunningStat s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
}

TEST(Summary, MeanAndGeomean)
{
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
}

TEST(Summary, WeightedSpeedupDefinition)
{
    // Two apps taking 10 s each sequentially; co-run both finish in
    // 10 s: consolidation doubles throughput.
    EXPECT_DOUBLE_EQ(weightedSpeedup({10.0, 10.0}, {10.0, 10.0}), 2.0);
    // Co-run stretches one app to 20 s: no gain.
    EXPECT_DOUBLE_EQ(weightedSpeedup({10.0, 10.0}, {20.0, 5.0}), 1.0);
}

TEST(Fairness, UnfairnessIsMaxOverMinSlowdown)
{
    // Perfectly fair: everyone slows by the same factor.
    EXPECT_DOUBLE_EQ(unfairness({1.5, 1.5, 1.5}), 1.0);
    // One app at 2x, one at 1.25x: 2 / 1.25 = 1.6.
    EXPECT_DOUBLE_EQ(unfairness({2.0, 1.25}), 1.6);
    // A speedup (slowdown < 1, e.g. less bandwidth contention than the
    // solo baseline had) widens the ratio like any other spread.
    EXPECT_DOUBLE_EQ(unfairness({0.5, 2.0}), 4.0);
    EXPECT_DOUBLE_EQ(unfairness({3.0}), 1.0);
}

TEST(Fairness, SystemThroughputSumsSpeedups)
{
    // Every app at solo speed: STP = N.
    EXPECT_DOUBLE_EQ(systemThroughput({1.0, 1.0, 1.0}), 3.0);
    // Both apps halved: the machine does one app's worth of work.
    EXPECT_DOUBLE_EQ(systemThroughput({2.0, 2.0}), 1.0);
    // 1/2 + 1/4 = 0.75.
    EXPECT_DOUBLE_EQ(systemThroughput({2.0, 4.0}), 0.75);
}

TEST(Table, AlignedAndCsvOutput)
{
    Table t({"name", "value"});
    t.addRow({"a", "1"});
    t.addRow({"with,comma", "2"});
    EXPECT_EQ(t.rows(), 2u);

    std::ostringstream plain;
    t.print(plain);
    EXPECT_NE(plain.str().find("name"), std::string::npos);
    EXPECT_NE(plain.str().find("----"), std::string::npos);

    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_NE(csv.str().find("\"with,comma\""), std::string::npos);
}

TEST(Table, NumFormatsPrecision)
{
    EXPECT_EQ(Table::num(1.23456, 2), "1.23");
    EXPECT_EQ(Table::num(2.0, 0), "2");
}

TEST(RateWindow, SteadyRate)
{
    RateWindow w(1e-3, 4); // 4 ms window
    // 1000 units per ms for 8 ms.
    for (int i = 0; i < 8; ++i)
        w.record(i * 1e-3 + 0.5e-3, 1000);
    // Steady state: 1000 units/ms = 1e6 units/s (queried within the
    // last filled bucket; an empty fresh bucket biases the estimate).
    EXPECT_NEAR(w.rate(7.9e-3), 1e6, 1e5);
    EXPECT_EQ(w.total(), 8000u);
}

TEST(RateWindow, OldTrafficExpires)
{
    RateWindow w(1e-3, 4);
    w.record(0.5e-3, 4000);
    EXPECT_GT(w.rate(1e-3), 0.0);
    // 10 ms later the burst has left the window entirely.
    EXPECT_DOUBLE_EQ(w.rate(10e-3), 0.0);
    EXPECT_EQ(w.total(), 4000u);
}

TEST(RateWindow, SpanMatchesConfig)
{
    RateWindow w(25e-6, 8);
    EXPECT_DOUBLE_EQ(w.span(), 200e-6);
}

TEST(RateWindow, BucketWraparoundReplacesExpiredTraffic)
{
    RateWindow w(1e-3, 4);
    // Epoch 0 lands in slot 0; epoch 4 wraps into the same slot. The
    // old burst must be replaced, not accumulated.
    w.record(0.5e-3, 1000);
    w.record(4.5e-3, 2000);
    // Live window at epoch 4 covers epochs 1..4: only the new burst.
    EXPECT_NEAR(w.rate(4.9e-3), 2000.0 / 4e-3, 1.0);
    EXPECT_EQ(w.total(), 3000u);
    EXPECT_EQ(w.staleDrops(), 0u);

    // Several laps later the slot keeps being reused cleanly.
    w.record(8.5e-3, 4000);  // slot 0 again (epoch 8)
    w.record(12.5e-3, 8000); // slot 0 again (epoch 12)
    EXPECT_NEAR(w.rate(12.9e-3), 8000.0 / 4e-3, 1.0);
}

TEST(RateWindow, OutOfOrderWithinWindowFoldsIn)
{
    // Hardware threads post traffic at their own local times, so mildly
    // out-of-order samples are normal; anything still inside the window
    // must land in its bucket.
    RateWindow w(1e-3, 4);
    w.record(3.5e-3, 1000); // epoch 3
    w.record(1.5e-3, 500);  // epoch 1: older, but in the window
    EXPECT_EQ(w.staleDrops(), 0u);
    EXPECT_NEAR(w.rate(3.9e-3), 1500.0 / 4e-3, 1.0);
    EXPECT_EQ(w.total(), 1500u);
}

TEST(RateWindow, StaleOutOfOrderSampleIsDroppedNotResurrected)
{
    RateWindow w(1e-3, 4);
    w.record(9.5e-3, 1000); // epoch 9 -> slot 1
    w.record(8.5e-3, 1000); // epoch 8 -> slot 0 (in window)
    // Epoch 4 also maps to slot 0. Folding it in would clobber the
    // live epoch-8 bucket with expired traffic; it must be dropped.
    w.record(4.5e-3, 7777);
    EXPECT_EQ(w.staleDrops(), 1u);
    EXPECT_NEAR(w.rate(9.9e-3), 2000.0 / 4e-3, 1.0)
        << "stale sample corrupted a live bucket";
    EXPECT_EQ(w.total(), 9777u) << "total still counts dropped samples";

    // A stale sample must not rewind the window either: current
    // traffic keeps accumulating normally afterwards.
    w.record(9.7e-3, 500);
    EXPECT_NEAR(w.rate(9.9e-3), 2500.0 / 4e-3, 1.0);
}

TEST(Summary, SignTestKnownValues)
{
    // No untied pairs: nothing to test, p = 1.
    EXPECT_DOUBLE_EQ(signTestPValue(0, 0), 1.0);
    // All-ties-broken-one-way cases are exact powers of two.
    EXPECT_DOUBLE_EQ(signTestPValue(1, 0), 0.5);
    EXPECT_DOUBLE_EQ(signTestPValue(5, 0), 1.0 / 32.0);
    EXPECT_DOUBLE_EQ(signTestPValue(6, 0), 1.0 / 64.0)
        << "six unanimous pairs is the first p <= 0.05";
    // P[X >= 0] is certain; P[X >= 3 of 6] = 42/64.
    EXPECT_DOUBLE_EQ(signTestPValue(0, 4), 1.0);
    EXPECT_NEAR(signTestPValue(3, 3), 42.0 / 64.0, 1e-12);
    // 8-of-10: C(10,8)+C(10,9)+C(10,10) = 56 of 1024.
    EXPECT_NEAR(signTestPValue(8, 2), 56.0 / 1024.0, 1e-12);
}

TEST(Summary, SignTestIsMonotoneAndStableAtScale)
{
    // More wins at fixed n must never raise the p-value.
    double prev = 1.0;
    for (unsigned wins = 0; wins <= 20; ++wins) {
        const double p = signTestPValue(wins, 20 - wins);
        EXPECT_LE(p, prev + 1e-15) << "wins=" << wins;
        EXPECT_GE(p, 0.0);
        EXPECT_LE(p, 1.0);
        prev = p;
    }
    // Large n exercises the log-space path: C(500, 250)-scale terms
    // overflow doubles if summed directly.
    const double p = signTestPValue(300, 200);
    EXPECT_GT(p, 0.0);
    EXPECT_LT(p, 1e-4) << "300/500 worse is overwhelmingly significant";
    // 2^-500 ~= 3e-151: tiny but representable; the log-space sum must
    // deliver it instead of underflowing partway to zero or NaN.
    EXPECT_NEAR(signTestPValue(500, 0), std::exp2(-500.0), 1e-160);
}

TEST(Table, CsvQuotesCommasOnly)
{
    Table t({"name", "value"});
    t.addRow({"plain", "1"});
    t.addRow({"a,b", "2"});
    std::ostringstream os;
    t.printCsv(os);
    EXPECT_EQ(os.str(), "name,value\nplain,1\n\"a,b\",2\n");
}

TEST(Table, EmptyTableStillPrintsHeader)
{
    Table t({"col"});
    EXPECT_EQ(t.rows(), 0u);
    std::ostringstream aligned;
    t.print(aligned);
    EXPECT_NE(aligned.str().find("col"), std::string::npos);
    std::ostringstream csv;
    t.printCsv(csv);
    EXPECT_EQ(csv.str(), "col\n");
}

} // namespace
} // namespace capart
