/**
 * @file
 * Unit tests for the way-partitionable set-associative cache — the
 * paper's hardware mechanism (§2.1). The three load-bearing semantics:
 * hits are allowed in any way, replacement is restricted to the
 * accessor's mask, and remasking never flushes resident data.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "common/units.hh"
#include "mem/set_assoc_cache.hh"
#include "mem/way_mask.hh"

namespace capart
{
namespace
{

CacheConfig
smallCache(ReplPolicy repl = ReplPolicy::LRU, unsigned ways = 4,
           unsigned partition_slots = 4)
{
    CacheConfig cfg;
    cfg.name = "test";
    cfg.sizeBytes = 16 * ways * kLineBytes; // 16 sets
    cfg.ways = ways;
    cfg.repl = repl;
    cfg.index = IndexFn::Modulo;
    cfg.partitionSlots = partition_slots;
    return cfg;
}

/** Line address landing in set @p set of a 16-set modulo-indexed cache. */
Addr
lineInSet(unsigned set, unsigned k)
{
    return set + 16ull * k;
}

TEST(WayMask, BasicOperations)
{
    const WayMask all = WayMask::all(12);
    EXPECT_EQ(all.count(), 12u);
    EXPECT_TRUE(all.contains(0));
    EXPECT_TRUE(all.contains(11));
    EXPECT_FALSE(all.contains(12));

    const WayMask lo = WayMask::range(0, 6);
    const WayMask hi = WayMask::range(6, 6);
    EXPECT_EQ(lo.count(), 6u);
    EXPECT_EQ(hi.count(), 6u);
    EXPECT_EQ((lo & hi).count(), 0u);
    EXPECT_EQ((lo | hi), all);
    EXPECT_EQ(lo.str(12), "0b000000111111");
}

TEST(WayMask, EmptyAndEquality)
{
    WayMask empty;
    EXPECT_TRUE(empty.empty());
    EXPECT_EQ(WayMask::range(2, 3).bits(), 0b11100u);
    EXPECT_EQ(WayMask(0b1010), WayMask(0b1010));
}

TEST(SetAssocCache, HitAfterFill)
{
    SetAssocCache c(smallCache());
    EXPECT_FALSE(c.access(lineInSet(3, 0), false, 0).hit);
    EXPECT_TRUE(c.access(lineInSet(3, 0), false, 0).hit);
    EXPECT_TRUE(c.probe(lineInSet(3, 0)));
    EXPECT_FALSE(c.probe(lineInSet(3, 1)));
}

TEST(SetAssocCache, LruEvictsOldest)
{
    SetAssocCache c(smallCache(ReplPolicy::LRU));
    // Fill the 4 ways of set 0.
    for (unsigned k = 0; k < 4; ++k)
        c.access(lineInSet(0, k), false, 0);
    // Touch line 0 so line 1 becomes LRU.
    c.access(lineInSet(0, 0), false, 0);
    const CacheAccessResult r = c.access(lineInSet(0, 4), false, 0);
    EXPECT_FALSE(r.hit);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victimLine, lineInSet(0, 1));
}

TEST(SetAssocCache, DirtyVictimReported)
{
    SetAssocCache c(smallCache(ReplPolicy::LRU));
    c.access(lineInSet(0, 0), true, 0); // store: dirty
    for (unsigned k = 1; k < 4; ++k)
        c.access(lineInSet(0, k), false, 0);
    const CacheAccessResult r = c.access(lineInSet(0, 4), false, 0);
    ASSERT_TRUE(r.evicted);
    EXPECT_EQ(r.victimLine, lineInSet(0, 0));
    EXPECT_TRUE(r.victimDirty);
}

TEST(SetAssocCache, CleanVictimNotDirty)
{
    SetAssocCache c(smallCache(ReplPolicy::LRU));
    for (unsigned k = 0; k < 5; ++k)
        c.access(lineInSet(0, k), false, 0);
    // Line 0 was evicted clean; re-fetch and evict line 1.
    const CacheAccessResult r = c.access(lineInSet(0, 5), false, 0);
    ASSERT_TRUE(r.evicted);
    EXPECT_FALSE(r.victimDirty);
}

// The core partitioning semantics (§2.1): a slot restricted to some
// ways may still *hit* on lines anywhere in the set.
TEST(SetAssocCache, HitsAllowedInAnyWay)
{
    SetAssocCache c(smallCache());
    c.setPartitionMask(0, WayMask::range(0, 2));
    c.setPartitionMask(1, WayMask::range(2, 2));

    // Slot 0 fills into its ways.
    c.access(lineInSet(5, 0), false, 0);
    // Slot 1 hits on slot 0's data despite a disjoint mask.
    EXPECT_TRUE(c.access(lineInSet(5, 0), false, 1).hit);
}

// ... but it may only replace within its own ways.
TEST(SetAssocCache, ReplacementRestrictedToMask)
{
    SetAssocCache c(smallCache());
    c.setPartitionMask(0, WayMask::range(0, 2));
    c.setPartitionMask(1, WayMask::range(2, 2));

    // Slot 0 streams many lines through set 0.
    for (unsigned k = 0; k < 32; ++k)
        c.access(lineInSet(0, k), false, 0);
    // Slot 1 installs two lines; they go to ways 2..3.
    c.access(lineInSet(0, 100), false, 1);
    c.access(lineInSet(0, 101), false, 1);
    // More slot-0 streaming cannot evict slot 1's lines.
    for (unsigned k = 32; k < 64; ++k)
        c.access(lineInSet(0, k), false, 0);
    EXPECT_TRUE(c.probe(lineInSet(0, 100)));
    EXPECT_TRUE(c.probe(lineInSet(0, 101)));
}

// Changing the mask must not flush: resident lines stay and can still
// be hit by everyone.
TEST(SetAssocCache, RemaskDoesNotFlush)
{
    SetAssocCache c(smallCache());
    c.setPartitionMask(0, WayMask::range(0, 4));
    for (unsigned k = 0; k < 4; ++k)
        c.access(lineInSet(2, k), false, 0);

    c.setPartitionMask(0, WayMask::range(0, 1));
    for (unsigned k = 0; k < 4; ++k)
        EXPECT_TRUE(c.probe(lineInSet(2, k))) << "line " << k;
    // Hits on now-out-of-mask ways still count as hits.
    EXPECT_TRUE(c.access(lineInSet(2, 3), false, 0).hit);
}

TEST(SetAssocCache, OverlappingMasksShareWays)
{
    SetAssocCache c(smallCache());
    c.setPartitionMask(0, WayMask::range(0, 3)); // ways 0-2
    c.setPartitionMask(1, WayMask::range(2, 2)); // ways 2-3: overlap on 2
    c.access(lineInSet(1, 0), false, 0);
    c.access(lineInSet(1, 1), false, 1);
    EXPECT_TRUE(c.probe(lineInSet(1, 0)));
    EXPECT_TRUE(c.probe(lineInSet(1, 1)));
}

TEST(SetAssocCache, InvalidateRemovesLine)
{
    SetAssocCache c(smallCache());
    c.access(lineInSet(7, 0), true, 0);
    const InvalidateResult inv = c.invalidate(lineInSet(7, 0));
    EXPECT_TRUE(inv.wasPresent);
    EXPECT_TRUE(inv.wasDirty);
    EXPECT_FALSE(c.probe(lineInSet(7, 0)));
    EXPECT_FALSE(c.invalidate(lineInSet(7, 0)).wasPresent);
}

TEST(SetAssocCache, InvalidWaysPreferredOverEviction)
{
    SetAssocCache c(smallCache());
    c.access(lineInSet(0, 0), false, 0);
    // Three ways are still invalid: no eviction may happen.
    for (unsigned k = 1; k < 4; ++k) {
        const CacheAccessResult r = c.access(lineInSet(0, k), false, 0);
        EXPECT_FALSE(r.hit);
        EXPECT_FALSE(r.evicted) << "line " << k;
    }
}

TEST(SetAssocCache, PartitionStatsPerSlot)
{
    SetAssocCache c(smallCache());
    c.access(lineInSet(0, 0), false, 0);
    c.access(lineInSet(0, 0), false, 0);
    c.access(lineInSet(0, 1), false, 1);
    EXPECT_EQ(c.slotStats(0).accesses, 2u);
    EXPECT_EQ(c.slotStats(0).hits, 1u);
    EXPECT_EQ(c.slotStats(0).misses(), 1u);
    EXPECT_EQ(c.slotStats(1).accesses, 1u);
    EXPECT_EQ(c.totalStats().accesses, 3u);
    c.resetStats();
    EXPECT_EQ(c.totalStats().accesses, 0u);
}

TEST(SetAssocCache, FillDoesNotCountDemandStats)
{
    SetAssocCache c(smallCache());
    c.fill(lineInSet(0, 0), false, 0);
    EXPECT_EQ(c.totalStats().accesses, 0u);
    EXPECT_TRUE(c.probe(lineInSet(0, 0)));
}

TEST(SetAssocCache, MarkDirtyAndTouch)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.markDirty(lineInSet(0, 0)), -1);
    EXPECT_EQ(c.touchLine(lineInSet(0, 0)), -1);
    c.access(lineInSet(0, 1), false, 0);
    const CacheAccessResult fill = c.access(lineInSet(0, 0), false, 0);
    ASSERT_EQ(fill.way, 1);
    // Both return the way that holds the line.
    EXPECT_EQ(c.markDirty(lineInSet(0, 0)), fill.way);
    EXPECT_EQ(c.touchLine(lineInSet(0, 0)), fill.way);
    // Four newer lines fill ways 2 and 3, then evict line 1 (the
    // oldest) and line 0: the last eviction carries the dirty mark.
    CacheAccessResult last;
    for (unsigned k = 2; k < 6; ++k)
        last = c.access(lineInSet(0, k), false, 0);
    EXPECT_FALSE(c.probe(lineInSet(0, 0)));
    ASSERT_TRUE(last.evicted);
    EXPECT_EQ(last.victimLine, lineInSet(0, 0));
    EXPECT_TRUE(last.victimDirty);
}

TEST(SetAssocCache, ResidentLinesCount)
{
    SetAssocCache c(smallCache());
    EXPECT_EQ(c.residentLines(), 0u);
    for (unsigned k = 0; k < 10; ++k)
        c.access(lineInSet(k, 0), false, 0);
    EXPECT_EQ(c.residentLines(), 10u);
}

TEST(SetAssocCache, HashedIndexSpreadsConflicts)
{
    CacheConfig cfg = smallCache();
    cfg.index = IndexFn::Hashed;
    SetAssocCache hashed(cfg);
    SetAssocCache modulo(smallCache());

    // Lines exactly one cache-stride apart conflict in the modulo
    // cache but spread under hashed indexing.
    std::set<std::uint64_t> hashed_sets;
    for (unsigned k = 0; k < 8; ++k) {
        hashed_sets.insert(hashed.setIndex(16ull * k));
        EXPECT_EQ(modulo.setIndex(16ull * k), 0u);
    }
    EXPECT_GT(hashed_sets.size(), 3u);
}

// Property sweep: every replacement policy must (a) only ever evict
// within the allowed mask and (b) respect partition isolation.
class ReplacementPolicyTest : public ::testing::TestWithParam<ReplPolicy>
{
};

TEST_P(ReplacementPolicyTest, VictimsAlwaysWithinMask)
{
    SetAssocCache c(smallCache(GetParam(), 8, 4));
    const WayMask mask = WayMask::range(2, 3); // ways 2..4
    c.setPartitionMask(1, mask);

    // Pre-fill all ways via slot 0 (full mask).
    for (unsigned k = 0; k < 8; ++k)
        c.access(lineInSet(0, k), false, 0);
    std::set<Addr> initial;
    for (unsigned k = 0; k < 8; ++k)
        initial.insert(lineInSet(0, k));

    // Slot 1 streams; victims must be the lines slot 1 can reach, and
    // at most 3 of the initial lines may ever be displaced.
    unsigned displaced = 0;
    for (unsigned k = 100; k < 200; ++k) {
        const CacheAccessResult r = c.access(lineInSet(0, k), false, 1);
        ASSERT_FALSE(r.hit);
        ASSERT_TRUE(r.evicted);
        if (initial.count(r.victimLine))
            ++displaced;
    }
    EXPECT_LE(displaced, 3u);
}

TEST_P(ReplacementPolicyTest, WorkingSetSmallerThanMaskIsRetained)
{
    SetAssocCache c(smallCache(GetParam(), 8, 2));
    c.setPartitionMask(0, WayMask::range(0, 4));
    // Re-walk a 3-line working set in one set many times: after warmup
    // it must always hit (any sane policy keeps a WS smaller than assoc).
    unsigned misses = 0;
    for (unsigned round = 0; round < 50; ++round) {
        for (unsigned k = 0; k < 3; ++k)
            misses += !c.access(lineInSet(4, k), false, 0).hit;
    }
    EXPECT_EQ(misses, 3u);
}

INSTANTIATE_TEST_SUITE_P(AllPolicies, ReplacementPolicyTest,
                         ::testing::Values(ReplPolicy::LRU,
                                           ReplPolicy::BitPLRU,
                                           ReplPolicy::NRU,
                                           ReplPolicy::Random,
                                           ReplPolicy::TreePLRU),
                         [](const auto &info) {
                             switch (info.param) {
                               case ReplPolicy::LRU:
                                 return "LRU";
                               case ReplPolicy::BitPLRU:
                                 return "BitPLRU";
                               case ReplPolicy::NRU:
                                 return "NRU";
                               case ReplPolicy::TreePLRU:
                                 return "TreePLRU";
                               default:
                                 return "Random";
                             }
                         });

// Capacity property across partition sizes: a random working set sized
// to fit its partition must produce a near-perfect hit rate, while one
// twice the partition must miss substantially.
class PartitionCapacityTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(PartitionCapacityTest, PartitionBoundsEffectiveCapacity)
{
    const unsigned ways = GetParam();
    CacheConfig cfg;
    cfg.sizeBytes = 64 * 12 * kLineBytes; // 64 sets x 12 ways
    cfg.ways = 12;
    cfg.repl = ReplPolicy::LRU;
    cfg.partitionSlots = 2;
    SetAssocCache c(cfg);
    c.setPartitionMask(0, WayMask::range(0, ways));

    const unsigned fit_lines = 64 * ways; // exactly the partition
    // Sequential re-walk of a fitting working set: hits after warmup.
    for (unsigned round = 0; round < 4; ++round)
        for (unsigned l = 0; l < fit_lines; ++l)
            c.access(l, false, 0);
    c.resetStats();
    for (unsigned l = 0; l < fit_lines; ++l)
        c.access(l, false, 0);
    const PartitionStats fit = c.slotStats(0);
    EXPECT_EQ(fit.misses(), 0u) << "ways=" << ways;
}

INSTANTIATE_TEST_SUITE_P(WayCounts, PartitionCapacityTest,
                         ::testing::Values(1u, 2u, 3u, 6u, 9u, 12u));

} // namespace
} // namespace capart
