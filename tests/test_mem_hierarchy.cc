/**
 * @file
 * Unit and property tests for the three-level hierarchy: service
 * levels, writeback cascades, the inclusive-LLC invariant, and the
 * prefetch fill paths.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "common/units.hh"
#include "mem/hierarchy.hh"

namespace capart
{
namespace
{

HierarchyConfig
tinyHierarchy()
{
    HierarchyConfig cfg = HierarchyConfig::sandyBridge();
    cfg.l1.sizeBytes = 2 * kib(1);  // 4 sets x 8 ways
    cfg.l2.sizeBytes = 8 * kib(1);  // 16 sets x 8 ways
    cfg.llc.sizeBytes = 48 * kib(1); // 64 sets x 12 ways
    cfg.llc.index = IndexFn::Modulo;
    return cfg;
}

TEST(Hierarchy, FirstAccessGoesToMemory)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    const HierarchyOutcome out = h.access(0, 0, 0x1000, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::Memory);
    EXPECT_EQ(out.dramReads, 1u);
    EXPECT_TRUE(out.llcAccess);
}

TEST(Hierarchy, SecondAccessHitsL1)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    h.access(0, 0, 0x1000, false);
    const HierarchyOutcome out = h.access(0, 0, 0x1000, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::L1);
    EXPECT_EQ(out.dramReads, 0u);
    EXPECT_FALSE(out.llcAccess);
}

TEST(Hierarchy, CrossCoreAccessHitsInLlc)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    h.access(0, 0, 0x1000, false);
    // Another core's private caches are cold; the LLC serves it.
    const HierarchyOutcome out = h.access(1, 0, 0x1000, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::LLC);
}

TEST(Hierarchy, L1EvictionSpillsToL2)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    // The tiny L1 holds 32 lines; stream 64 distinct lines that map
    // across its 4 sets, then re-walk: the spilled half hits L2.
    for (unsigned k = 0; k < 64; ++k)
        h.access(0, 0, k * kLineBytes, false);
    unsigned l2_hits = 0;
    for (unsigned k = 0; k < 32; ++k) {
        if (h.access(0, 0, k * kLineBytes, false).servedBy ==
            ServiceLevel::L2) {
            ++l2_hits;
        }
    }
    EXPECT_GT(l2_hits, 16u);
}

/** Walk the hierarchy checking inclusion: every L1/L2 line is in LLC. */
void
checkInclusion(CacheHierarchy &h, const std::vector<Addr> &lines)
{
    for (const Addr line : lines) {
        for (unsigned c = 0; c < h.numCores(); ++c) {
            if (h.l1(c).probe(line) || h.l2(c).probe(line)) {
                EXPECT_TRUE(h.llc().probe(line))
                    << "inclusion violated for line " << line;
            }
        }
    }
}

TEST(Hierarchy, InclusionInvariantUnderRandomTraffic)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    Rng rng(99);
    std::vector<Addr> lines;
    for (unsigned k = 0; k < 2048; ++k)
        lines.push_back(rng.below(4096));

    for (unsigned k = 0; k < lines.size(); ++k) {
        h.access(static_cast<CoreId>(k % 2), 0, lines[k] * kLineBytes,
                 rng.chance(0.3));
        if (k % 256 == 255)
            checkInclusion(h, lines);
    }
    checkInclusion(h, lines);
}

TEST(Hierarchy, InclusionHoldsAfterEveryOperationOfEveryEntryPoint)
{
    // Four cores draw from one pool larger than the LLC, so LLC
    // evictions back-invalidate other cores' copies. Demand accesses
    // (30 % writes) dirty lines whose L1 and L2 victims cascade
    // outward, and both prefetch fills mix in; a remask halfway
    // through confines each core to its own ways. Every writeback that
    // reaches the LLC must find its line there (writebackToLlc asserts
    // it), and no private cache may ever hold a line the LLC lacks.
    constexpr unsigned kCores = 4;
    CacheHierarchy h(tinyHierarchy(), kCores);
    Rng rng(2020);
    std::vector<Addr> pool;
    for (unsigned k = 0; k < 1024; ++k)
        pool.push_back(rng.below(1u << 20));

    unsigned dram_writes = 0;
    for (unsigned op = 0; op < 6000; ++op) {
        if (op == 3000) {
            for (unsigned c = 0; c < kCores; ++c)
                h.setLlcPartition(c, WayMask::range(3 * c, 3));
        }
        const CoreId core = static_cast<CoreId>(rng.below(kCores));
        const Addr line = pool[rng.below(pool.size())];
        const double kind = rng.uniform();
        HierarchyOutcome out;
        if (kind < 0.6)
            out = h.access(core, core, line * kLineBytes, rng.chance(0.3));
        else if (kind < 0.8)
            out = h.prefetchIntoL1(core, core, line);
        else
            out = h.prefetchIntoL2(core, core, line);
        dram_writes += out.dramWrites;
        checkInclusion(h, pool);
        ASSERT_FALSE(HasFailure()) << "after op " << op;
    }
    EXPECT_GT(dram_writes, 0u) << "no dirty line ever left the chip";
}

TEST(Hierarchy, InclusionHoldsWithPartitioningAndRemask)
{
    CacheHierarchy h(tinyHierarchy(), 2);
    Rng rng(7);
    h.setLlcPartition(0, WayMask::range(0, 4));
    h.setLlcPartition(1, WayMask::range(4, 8));

    std::vector<Addr> lines;
    for (unsigned k = 0; k < 1024; ++k)
        lines.push_back(rng.below(2048));

    for (unsigned k = 0; k < lines.size(); ++k) {
        const unsigned slot = k % 2;
        h.access(slot, slot, lines[k] * kLineBytes, rng.chance(0.3));
        if (k == 512) {
            // Remask mid-run: must not break inclusion (no flush).
            h.setLlcPartition(0, WayMask::range(0, 10));
            h.setLlcPartition(1, WayMask::range(10, 2));
        }
    }
    checkInclusion(h, lines);
}

TEST(Hierarchy, DirtyDataSurvivesWritebackChain)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    // Dirty a line, push it out of L1 and L2 with a long stream, then
    // verify a re-read is served on-chip (the dirty line reached the
    // LLC, not thin air) or generated a DRAM writeback.
    h.access(0, 0, 0x0, true);
    unsigned writebacks = 0;
    for (unsigned k = 1; k < 512; ++k) {
        const HierarchyOutcome out =
            h.access(0, 0, k * kLineBytes, false);
        writebacks += out.dramWrites;
    }
    // The dirtied line either still sits somewhere on-chip or its
    // eviction produced exactly one DRAM write.
    const bool on_chip =
        h.l1(0).probe(0) || h.l2(0).probe(0) || h.llc().probe(0);
    EXPECT_TRUE(on_chip || writebacks >= 1);
}

TEST(Hierarchy, LlcEvictionBackInvalidatesInnerLevels)
{
    HierarchyConfig cfg = tinyHierarchy();
    // Make the LLC direct-mapped and tiny so evictions are easy to force.
    cfg.llc.sizeBytes = 4 * kib(1); // 64 sets x 1 way
    cfg.llc.ways = 1;
    cfg.llc.partitionSlots = 2;
    CacheHierarchy h(cfg, 1);

    h.access(0, 0, 0x0, false);
    EXPECT_TRUE(h.l1(0).probe(0));
    // Conflicting line (same LLC set, 64 sets apart) evicts line 0.
    h.access(0, 0, 64 * kLineBytes, false);
    EXPECT_FALSE(h.llc().probe(0));
    EXPECT_FALSE(h.l1(0).probe(0)) << "L1 copy must be back-invalidated";
    EXPECT_FALSE(h.l2(0).probe(0)) << "L2 copy must be back-invalidated";
}

TEST(Hierarchy, PrefetchIntoL1MakesNextAccessHit)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    const HierarchyOutcome p = h.prefetchIntoL1(0, 0, 5);
    EXPECT_EQ(p.dramReads, 1u);
    const HierarchyOutcome out = h.access(0, 0, 5 * kLineBytes, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::L1);
}

TEST(Hierarchy, PrefetchIntoL2MakesNextAccessHitL2)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    h.prefetchIntoL2(0, 0, 9);
    const HierarchyOutcome out = h.access(0, 0, 9 * kLineBytes, false);
    EXPECT_EQ(out.servedBy, ServiceLevel::L2);
}

TEST(Hierarchy, RedundantPrefetchIsFree)
{
    CacheHierarchy h(tinyHierarchy(), 1);
    h.access(0, 0, 3 * kLineBytes, false);
    const HierarchyOutcome p = h.prefetchIntoL1(0, 0, 3);
    EXPECT_EQ(p.dramReads, 0u);
    EXPECT_FALSE(p.llcAccess);
}

TEST(Hierarchy, PrefetchFillsRespectPartitionMask)
{
    HierarchyConfig cfg = tinyHierarchy();
    CacheHierarchy h(cfg, 2);
    h.setLlcPartition(0, WayMask::range(0, 2));
    h.setLlcPartition(1, WayMask::range(2, 10));

    // Slot 1 fills LLC set 0 heavily through demand.
    for (unsigned k = 0; k < 10; ++k)
        h.access(1, 1, (64ull * k) * kLineBytes, false);
    const std::uint64_t before = h.llc().slotStats(1).accesses;

    // Slot 0 prefetch-streams through the same set; slot 1's lines in
    // ways 2..11 may lose at most what fits in ways 0..1.
    for (unsigned k = 100; k < 200; ++k)
        h.prefetchIntoL2(0, 0, 64ull * k);
    unsigned survivors = 0;
    for (unsigned k = 0; k < 10; ++k)
        survivors += h.llc().probe(64ull * k);
    EXPECT_GE(survivors, 8u);
    EXPECT_EQ(h.llc().slotStats(1).accesses, before)
        << "prefetch fills must not count as demand accesses";
}

TEST(Hierarchy, LatencyBySeviceLevel)
{
    HierarchyConfig cfg = tinyHierarchy();
    CacheHierarchy h(cfg, 1);
    EXPECT_EQ(h.latency(ServiceLevel::L1, 100), cfg.l1Latency);
    EXPECT_EQ(h.latency(ServiceLevel::L2, 100), cfg.l2Latency);
    EXPECT_EQ(h.latency(ServiceLevel::LLC, 100), cfg.llcLatency);
    EXPECT_EQ(h.latency(ServiceLevel::Memory, 100),
              cfg.llcLatency + 100);
}

TEST(Hierarchy, SandyBridgeGeometry)
{
    const HierarchyConfig cfg = HierarchyConfig::sandyBridge();
    EXPECT_EQ(cfg.l1.sizeBytes, kib(32));
    EXPECT_EQ(cfg.l2.sizeBytes, kib(256));
    EXPECT_EQ(cfg.llc.sizeBytes, mib(6));
    EXPECT_EQ(cfg.llc.ways, 12u);
    EXPECT_EQ(cfg.llc.sets(), 8192u);
    EXPECT_TRUE(cfg.llc.inclusive);
    EXPECT_FALSE(cfg.l2.inclusive);
}

} // namespace
} // namespace capart
