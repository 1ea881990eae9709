/**
 * @file
 * Unit tests for the four Sandy Bridge prefetcher models and their
 * per-unit enables (§3.3).
 */

#include <gtest/gtest.h>

#include <vector>

#include "prefetch/prefetchers.hh"

namespace capart
{
namespace
{

std::vector<PrefetchRequest>
observeAll(PrefetcherBank &bank, std::uint64_t pc,
           const std::vector<Addr> &lines, bool missed_l1 = true)
{
    std::vector<PrefetchRequest> out;
    for (const Addr line : lines)
        bank.observe(pc, line, missed_l1, out);
    return out;
}

TEST(DcuIpPrefetcher, DetectsConstantStride)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.dcuIp = true;
    PrefetcherBank bank(cfg);

    // Stride of 2 lines from one PC: after training, +stride prefetches.
    const auto reqs = observeAll(bank, 0x42, {10, 12, 14, 16, 18});
    ASSERT_FALSE(reqs.empty());
    for (const auto &r : reqs) {
        EXPECT_TRUE(r.intoL1);
        EXPECT_EQ(r.line % 2, 0u);
    }
    EXPECT_GT(bank.stats().dcuIpIssued, 0u);
    // The last prefetch targets the next stride step.
    EXPECT_EQ(reqs.back().line, 20u);
}

TEST(DcuIpPrefetcher, NoIssueOnRandomStream)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.dcuIp = true;
    PrefetcherBank bank(cfg);
    const auto reqs =
        observeAll(bank, 0x42, {10, 999, 23, 5000, 77, 4, 1234});
    EXPECT_TRUE(reqs.empty());
}

TEST(DcuStreamer, TriggersOnRepeatedLineAccess)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.dcuStreamer = true;
    PrefetcherBank bank(cfg);
    // Two touches of line 100 inside the recent buffer window.
    const auto reqs = observeAll(bank, 1, {100, 100});
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].line, 101u);
    EXPECT_TRUE(reqs[0].intoL1);
}

TEST(DcuStreamer, SingleTouchDoesNotTrigger)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.dcuStreamer = true;
    PrefetcherBank bank(cfg);
    const auto reqs = observeAll(bank, 1, {100, 200, 300});
    EXPECT_TRUE(reqs.empty());
}

TEST(MlcSpatial, TriggersOnSuccessiveLines)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.mlcSpatial = true;
    PrefetcherBank bank(cfg);
    const auto reqs = observeAll(bank, 1, {50, 51});
    ASSERT_EQ(reqs.size(), 1u);
    EXPECT_EQ(reqs[0].line, 52u);
    EXPECT_FALSE(reqs[0].intoL1) << "MLC prefetches fill the L2";
}

TEST(MlcSpatial, OnlyTrainsOnL1Misses)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.mlcSpatial = true;
    PrefetcherBank bank(cfg);
    const auto reqs = observeAll(bank, 1, {50, 51}, /*missed_l1=*/false);
    EXPECT_TRUE(reqs.empty()) << "L1 hits are invisible behind the L1";
}

TEST(MlcStreamer, DetectsAscendingStreamInPage)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.mlcStreamer = true;
    PrefetcherBank bank(cfg);
    const auto reqs = observeAll(bank, 1, {200, 201, 202, 203});
    ASSERT_FALSE(reqs.empty());
    for (const auto &r : reqs) {
        EXPECT_FALSE(r.intoL1);
        EXPECT_GT(r.line, 202u);
    }
}

TEST(MlcStreamer, DetectsDescendingStream)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.mlcStreamer = true;
    PrefetcherBank bank(cfg);
    const auto reqs = observeAll(bank, 1, {240, 239, 238, 237});
    ASSERT_FALSE(reqs.empty());
    // Each prefetch runs ahead (below) the line that triggered it; the
    // earliest trigger is line 238.
    for (const auto &r : reqs)
        EXPECT_LT(r.line, 238u);
}

TEST(MlcStreamer, DoesNotCrossPageBoundary)
{
    PrefetchConfig cfg = PrefetchConfig::allEnabled(false);
    cfg.mlcStreamer = true;
    PrefetcherBank bank(cfg);
    // 64 lines per 4 KB page; stream up to the page's last lines.
    const auto reqs = observeAll(bank, 1, {60, 61, 62, 63});
    for (const auto &r : reqs)
        EXPECT_LT(r.line, 64u) << "prefetch crossed the page";
}

TEST(PrefetcherBank, AllDisabledIsSilent)
{
    PrefetcherBank bank(PrefetchConfig::allEnabled(false));
    const auto reqs =
        observeAll(bank, 7, {1, 2, 3, 4, 5, 6, 7, 8, 8, 9, 10});
    EXPECT_TRUE(reqs.empty());
    EXPECT_EQ(bank.stats().totalIssued(), 0u);
}

TEST(PrefetcherBank, SequentialStreamEngagesMultipleUnits)
{
    PrefetcherBank bank(PrefetchConfig::allEnabled(true));
    std::vector<Addr> lines;
    for (Addr l = 0; l < 32; ++l)
        lines.push_back(l);
    observeAll(bank, 3, lines);
    EXPECT_GT(bank.stats().mlcSpatialIssued, 0u);
    EXPECT_GT(bank.stats().mlcStreamIssued, 0u);
}

TEST(PrefetcherBank, StatsResetClearsCounters)
{
    PrefetcherBank bank(PrefetchConfig::allEnabled(true));
    observeAll(bank, 3, {1, 2, 3, 4, 5});
    EXPECT_GT(bank.stats().totalIssued(), 0u);
    bank.resetStats();
    EXPECT_EQ(bank.stats().totalIssued(), 0u);
}

} // namespace
} // namespace capart
