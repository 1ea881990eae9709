/**
 * @file
 * Differential test of the way-partitionable set-associative cache.
 *
 * The production @ref capart::SetAssocCache is optimised (packed tag
 * arrays, per-set valid/dirty bitmasks, policy state machines); this
 * test replays long random access streams — with random way-mask
 * changes, fills, dirty marks, touches and back-invalidations mixed
 * in — against a naive reference model written for obviousness, and
 * checks after every operation that both agree on:
 *
 *  - hit/miss outcome, eviction outcome, victim line, victim dirtiness;
 *  - the way markDirty() and touchLine() report;
 *  - the exact way each line resides in (so a victim chosen for a slot
 *    provably lay inside that slot's mask at eviction time);
 *  - full tag-array contents (periodically);
 *
 * plus the partition invariant of the paper's mechanism (§2.1): under
 * fixed disjoint masks, a slot's lines never occupy more ways of a set
 * than its mask allows.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "common/units.hh"
#include "mem/set_assoc_cache.hh"
#include "mem/way_mask.hh"

namespace capart
{
namespace
{

/**
 * Naive mirror of SetAssocCache for all five replacement policies.
 * Every structure is a plain per-way vector and every decision a loop
 * over ways; no bit tricks shared with the implementation under test.
 * Set indexing is delegated to the hardware model (the public
 * setIndex()) so the hashed indexing function is exercised too — the
 * model then has to agree on everything that *happens* at that set.
 * @p seed must be the cache's: the Random policy draws from its own
 * Rng in lockstep with the cache's.
 */
class RefCache
{
  public:
    RefCache(const SetAssocCache &hw, ReplPolicy repl, unsigned slots,
             std::uint64_t seed)
        : hw_(&hw),
          sets_(hw.sets()),
          ways_(hw.config().ways),
          repl_(repl),
          line_(sets_ * ways_, 0),
          valid_(sets_ * ways_, 0),
          dirty_(sets_ * ways_, 0),
          inserter_(sets_ * ways_, 0),
          age_(sets_ * ways_, 0),
          clock_(sets_, 0),
          mru_(sets_ * ways_, 0),
          masks_(slots, WayMask::all(ways_)),
          rng_(seed)
    {
        // Padded leaf count of the tree-PLRU tree: the smallest power
        // of two covering the ways (computed the obvious way).
        leaves_ = 1;
        while (leaves_ < ways_)
            leaves_ *= 2;
        treeDir_.assign(sets_ * 2 * leaves_, 0);
    }

    void setMask(unsigned slot, WayMask m) { masks_[slot] = m; }

    CacheAccessResult
    access(Addr line, bool write, unsigned slot)
    {
        const std::uint64_t set = hw_->setIndex(line);
        const int way = findWay(set, line);
        if (way >= 0) {
            touch(set, static_cast<unsigned>(way));
            if (write)
                dirty_[at(set, way)] = 1;
            return CacheAccessResult{.hit = true};
        }
        return insert(set, line, write, slot);
    }

    CacheAccessResult
    fill(Addr line, bool dirty, unsigned slot)
    {
        const std::uint64_t set = hw_->setIndex(line);
        const int way = findWay(set, line);
        if (way >= 0) {
            touch(set, static_cast<unsigned>(way));
            if (dirty)
                dirty_[at(set, way)] = 1;
            return CacheAccessResult{.hit = true};
        }
        return insert(set, line, dirty, slot);
    }

    /** Mark a resident line dirty and touch it; its way, or -1. */
    int
    markDirty(Addr line)
    {
        const std::uint64_t set = hw_->setIndex(line);
        const int way = findWay(set, line);
        if (way >= 0) {
            dirty_[at(set, way)] = 1;
            touch(set, static_cast<unsigned>(way));
        }
        return way;
    }

    /** Touch a resident line; its way, or -1. */
    int
    touchLine(Addr line)
    {
        const std::uint64_t set = hw_->setIndex(line);
        const int way = findWay(set, line);
        if (way >= 0)
            touch(set, static_cast<unsigned>(way));
        return way;
    }

    InvalidateResult
    invalidate(Addr line)
    {
        const std::uint64_t set = hw_->setIndex(line);
        const int way = findWay(set, line);
        if (way < 0)
            return InvalidateResult{};
        InvalidateResult res;
        res.wasPresent = true;
        res.wasDirty = dirty_[at(set, way)] != 0;
        valid_[at(set, way)] = 0;
        dirty_[at(set, way)] = 0;
        if (repl_ == ReplPolicy::LRU)
            age_[at(set, way)] = 0;
        else if (repl_ == ReplPolicy::BitPLRU || repl_ == ReplPolicy::NRU)
            mru_[at(set, way)] = 0;
        // TreePLRU, Random: nothing to forget — victim selection
        // prefers invalid allowed ways before consulting policy state.
        return res;
    }

    int
    wayOf(Addr line) const
    {
        return findWay(hw_->setIndex(line), line);
    }

    std::uint64_t
    residentLines() const
    {
        std::uint64_t n = 0;
        for (const auto v : valid_)
            n += v;
        return n;
    }

    /** Resident line in (set, way), or no value. */
    bool
    slotContents(std::uint64_t set, unsigned way, Addr *line,
                 unsigned *inserter) const
    {
        if (!valid_[at(set, static_cast<int>(way))])
            return false;
        *line = line_[at(set, static_cast<int>(way))];
        *inserter = inserter_[at(set, static_cast<int>(way))];
        return true;
    }

    std::uint64_t sets() const { return sets_; }
    unsigned ways() const { return ways_; }

  private:
    std::size_t
    at(std::uint64_t set, int way) const
    {
        return set * ways_ + static_cast<unsigned>(way);
    }

    int
    findWay(std::uint64_t set, Addr line) const
    {
        for (unsigned w = 0; w < ways_; ++w) {
            if (valid_[at(set, static_cast<int>(w))] &&
                line_[at(set, static_cast<int>(w))] == line) {
                return static_cast<int>(w);
            }
        }
        return -1;
    }

    /** Index of tree-PLRU node @p node of @p set in treeDir_. */
    std::size_t
    tnode(std::uint64_t set, unsigned node) const
    {
        return set * 2 * leaves_ + node;
    }

    /** Does the subtree rooted at @p node hold any allowed way? */
    bool
    subtreeHasAllowed(unsigned node, WayMask allowed) const
    {
        if (node >= leaves_) {
            const unsigned w = node - leaves_;
            return w < ways_ && allowed.contains(w);
        }
        return subtreeHasAllowed(2 * node, allowed) ||
               subtreeHasAllowed(2 * node + 1, allowed);
    }

    void
    touch(std::uint64_t set, unsigned way)
    {
        if (repl_ == ReplPolicy::LRU) {
            age_[at(set, static_cast<int>(way))] = ++clock_[set];
            return;
        }
        if (repl_ == ReplPolicy::TreePLRU) {
            // Walk from the touched leaf to the root, pointing every
            // node on the path away from the child we came from.
            unsigned node = leaves_ + way;
            while (node > 1) {
                const unsigned parent = node / 2;
                const bool came_from_left = (node % 2) == 0;
                treeDir_[tnode(set, parent)] = came_from_left ? 1 : 0;
                node = parent;
            }
            return;
        }
        if (repl_ == ReplPolicy::Random)
            return;
        mru_[at(set, static_cast<int>(way))] = 1;
        // NRU: the reference bit never saturates.
        if (repl_ == ReplPolicy::NRU)
            return;
        // Bit-PLRU: when every way of the set is marked MRU, the epoch
        // restarts with only the just-touched way marked.
        bool all = true;
        for (unsigned w = 0; w < ways_; ++w)
            all = all && mru_[at(set, static_cast<int>(w))];
        if (all) {
            for (unsigned w = 0; w < ways_; ++w)
                mru_[at(set, static_cast<int>(w))] = 0;
            mru_[at(set, static_cast<int>(way))] = 1;
        }
    }

    unsigned
    pickVictim(std::uint64_t set, WayMask allowed)
    {
        // Invalid allowed ways first, lowest index.
        for (unsigned w = 0; w < ways_; ++w) {
            if (allowed.contains(w) && !valid_[at(set, static_cast<int>(w))])
                return w;
        }
        if (repl_ == ReplPolicy::TreePLRU) {
            // Follow the direction bits from the root, detouring
            // whenever the pointed-to subtree has no allowed way.
            unsigned node = 1;
            while (node < leaves_) {
                unsigned want = treeDir_[tnode(set, node)];
                if (!subtreeHasAllowed(2 * node + want, allowed))
                    want ^= 1u;
                node = 2 * node + want;
            }
            const unsigned way = node - leaves_;
            EXPECT_TRUE(allowed.contains(way));
            return way;
        }
        if (repl_ == ReplPolicy::LRU) {
            // Least age among allowed; ties go to the lowest way.
            unsigned best = 0;
            bool found = false;
            for (unsigned w = 0; w < ways_; ++w) {
                if (!allowed.contains(w))
                    continue;
                if (!found ||
                    age_[at(set, static_cast<int>(w))] <
                        age_[at(set, static_cast<int>(best))]) {
                    best = w;
                    found = true;
                }
            }
            EXPECT_TRUE(found);
            return best;
        }
        if (repl_ == ReplPolicy::Random) {
            // Draw the pick-th allowed way, counting in index order.
            unsigned n = 0;
            for (unsigned w = 0; w < ways_; ++w)
                n += allowed.contains(w) ? 1 : 0;
            auto pick = rng_.below(n);
            for (unsigned w = 0; w < ways_; ++w) {
                if (allowed.contains(w) && pick-- == 0)
                    return w;
            }
            ADD_FAILURE() << "random pick outside the mask";
            return 0;
        }
        // Bit-PLRU and NRU: first allowed way without its bit; if all
        // allowed ways are marked, clear them and take the lowest.
        for (unsigned w = 0; w < ways_; ++w) {
            if (allowed.contains(w) && !mru_[at(set, static_cast<int>(w))])
                return w;
        }
        unsigned lowest = ways_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (allowed.contains(w)) {
                mru_[at(set, static_cast<int>(w))] = 0;
                if (lowest == ways_)
                    lowest = w;
            }
        }
        return lowest;
    }

    CacheAccessResult
    insert(std::uint64_t set, Addr line, bool dirty, unsigned slot)
    {
        CacheAccessResult res;
        const WayMask mask = masks_[slot];
        const unsigned victim = pickVictim(set, mask);
        EXPECT_TRUE(mask.contains(victim)); // never evict outside the mask
        const std::size_t idx = at(set, static_cast<int>(victim));
        if (valid_[idx]) {
            res.evicted = true;
            res.victimLine = line_[idx];
            res.victimDirty = dirty_[idx] != 0;
        }
        line_[idx] = line;
        valid_[idx] = 1;
        dirty_[idx] = dirty ? 1 : 0;
        inserter_[idx] = slot;
        touch(set, victim);
        return res;
    }

    const SetAssocCache *hw_;
    std::uint64_t sets_;
    unsigned ways_;
    ReplPolicy repl_;

    std::vector<Addr> line_;
    std::vector<std::uint8_t> valid_;
    std::vector<std::uint8_t> dirty_;
    std::vector<unsigned> inserter_;
    std::vector<std::uint32_t> age_; //!< LRU
    std::vector<std::uint32_t> clock_;
    std::vector<std::uint8_t> mru_; //!< bit-PLRU MRU / NRU reference
    unsigned leaves_ = 1;           //!< tree-PLRU padded leaf count
    /** tree-PLRU direction per (set, heap node): 0 left, 1 right. */
    std::vector<std::uint8_t> treeDir_;
    std::vector<WayMask> masks_;
    Rng rng_; //!< Random
};

CacheConfig
diffCache(ReplPolicy repl, IndexFn index, unsigned ways = 8,
          unsigned sets = 16, unsigned slots = 4)
{
    CacheConfig cfg;
    cfg.name = "diff";
    cfg.sizeBytes = static_cast<std::uint64_t>(sets) * ways * kLineBytes;
    cfg.ways = ways;
    cfg.repl = repl;
    cfg.index = index;
    cfg.partitionSlots = slots;
    return cfg;
}

/** Compare full tag-array contents (every set, every way). */
void
expectContentsEqual(const SetAssocCache &hw, const RefCache &ref)
{
    ASSERT_EQ(hw.residentLines(), ref.residentLines());
    for (std::uint64_t set = 0; set < ref.sets(); ++set) {
        for (unsigned w = 0; w < ref.ways(); ++w) {
            Addr line = 0;
            unsigned inserter = 0;
            if (!ref.slotContents(set, w, &line, &inserter))
                continue;
            EXPECT_TRUE(hw.probe(line))
                << "line " << line << " missing from set " << set;
            EXPECT_EQ(hw.wayOf(line), static_cast<int>(w))
                << "line " << line << " in the wrong way of set " << set;
            EXPECT_EQ(hw.ownerOf(line), static_cast<int>(inserter))
                << "line " << line << " owner plane disagrees, set "
                << set;
        }
    }
}

void
runDifferential(ReplPolicy repl, IndexFn index, std::uint64_t seed,
                unsigned ways = 8, unsigned sets = 16,
                unsigned slots = 4, unsigned ops = 40000)
{
    const unsigned kWays = ways;
    const unsigned kSets = sets;
    const unsigned kSlots = slots;
    const unsigned kOps = ops;
    const unsigned kContentCheckEvery = std::max(512u, ops / 64);
    // ~2x capacity worth of distinct lines: plenty of conflict misses.
    const Addr kLines = 2ull * kSets * kWays;

    const CacheConfig cfg = diffCache(repl, index, kWays, kSets, kSlots);
    SetAssocCache hw(cfg, seed);
    RefCache ref(hw, repl, kSlots, seed);
    Rng rng(seed);

    for (unsigned op = 0; op < kOps; ++op) {
        // Random remasking: any non-empty mask, any slot, at any time.
        // Remasking must never flush data, so the models stay in sync
        // across the change by construction — if they don't, victim
        // selection diverged.
        if (rng.chance(0.005)) {
            const unsigned slot = static_cast<unsigned>(rng.below(kSlots));
            const auto bits = static_cast<std::uint32_t>(
                rng.below(WayMask::all(kWays).bits()) + 1);
            hw.setPartitionMask(slot, WayMask(bits));
            ref.setMask(slot, WayMask(bits));
        }

        const Addr line = rng.below(kLines);
        const unsigned slot = static_cast<unsigned>(rng.below(kSlots));
        const WayMask mask = hw.partitionMask(slot);

        if (rng.chance(0.02)) { // back-invalidation
            const InvalidateResult h = hw.invalidate(line);
            const InvalidateResult r = ref.invalidate(line);
            ASSERT_EQ(h.wasPresent, r.wasPresent) << "op " << op;
            ASSERT_EQ(h.wasDirty, r.wasDirty) << "op " << op;
            continue;
        }
        if (rng.chance(0.04)) { // inner writeback hit or prefetch touch
            const bool dirty = rng.chance(0.5);
            const int h = dirty ? hw.markDirty(line) : hw.touchLine(line);
            const int r = dirty ? ref.markDirty(line) : ref.touchLine(line);
            ASSERT_EQ(h, r) << "op " << op << " line " << line;
            continue;
        }

        const bool write = rng.chance(0.3);
        CacheAccessResult h;
        CacheAccessResult r;
        if (rng.chance(0.1)) { // prefetch-style fill
            h = hw.fill(line, write, slot);
            r = ref.fill(line, write, slot);
        } else {
            h = hw.access(line, write, slot);
            r = ref.access(line, write, slot);
        }

        ASSERT_EQ(h.hit, r.hit) << "op " << op << " line " << line;
        ASSERT_EQ(h.evicted, r.evicted) << "op " << op << " line " << line;
        if (h.evicted) {
            ASSERT_EQ(h.victimLine, r.victimLine) << "op " << op;
            ASSERT_EQ(h.victimDirty, r.victimDirty) << "op " << op;
        }
        // Way-level parity; on a miss this also proves the victim way
        // lay inside the accessor's mask (the reference checks it).
        const int hw_way = hw.wayOf(line);
        ASSERT_EQ(hw_way, ref.wayOf(line)) << "op " << op;
        ASSERT_GE(hw_way, 0);
        if (!h.hit) {
            ASSERT_TRUE(mask.contains(static_cast<unsigned>(hw_way)))
                << "op " << op << ": inserted outside the slot's mask";
        }

        if (op % kContentCheckEvery == 0)
            expectContentsEqual(hw, ref);
    }
    expectContentsEqual(hw, ref);
}

TEST(MemDifferential, LruModuloAgreesWithReference)
{
    runDifferential(ReplPolicy::LRU, IndexFn::Modulo, 12345);
}

TEST(MemDifferential, LruHashedAgreesWithReference)
{
    runDifferential(ReplPolicy::LRU, IndexFn::Hashed, 777);
}

TEST(MemDifferential, BitPlruModuloAgreesWithReference)
{
    runDifferential(ReplPolicy::BitPLRU, IndexFn::Modulo, 9001);
}

TEST(MemDifferential, BitPlruHashedAgreesWithReference)
{
    runDifferential(ReplPolicy::BitPLRU, IndexFn::Hashed, 31337);
}

TEST(MemDifferential, TreePlruModuloAgreesWithReference)
{
    runDifferential(ReplPolicy::TreePLRU, IndexFn::Modulo, 555);
}

TEST(MemDifferential, TreePlruHashedAgreesWithReference)
{
    runDifferential(ReplPolicy::TreePLRU, IndexFn::Hashed, 556);
}

TEST(MemDifferential, NruModuloAgreesWithReference)
{
    runDifferential(ReplPolicy::NRU, IndexFn::Modulo, 4101);
}

TEST(MemDifferential, NruHashedAgreesWithReference)
{
    runDifferential(ReplPolicy::NRU, IndexFn::Hashed, 4102);
}

TEST(MemDifferential, RandomModuloAgreesWithReference)
{
    runDifferential(ReplPolicy::Random, IndexFn::Modulo, 4201);
}

TEST(MemDifferential, RandomHashedAgreesWithReference)
{
    runDifferential(ReplPolicy::Random, IndexFn::Hashed, 4202);
}

TEST(MemDifferential, TreePlruNonPowerOfTwoWays)
{
    // 20 ways pad the tree-PLRU leaf level to 32; the padding leaves
    // must never be chosen because no mask can allow them.
    runDifferential(ReplPolicy::TreePLRU, IndexFn::Hashed, 557,
                    /*ways=*/20, /*sets=*/16);
    runDifferential(ReplPolicy::TreePLRU, IndexFn::Modulo, 558,
                    /*ways=*/12, /*sets=*/64);
}

TEST(MemDifferential, WideAssociativityAndModuloIndexing)
{
    runDifferential(ReplPolicy::TreePLRU, IndexFn::Modulo, 909,
                    /*ways=*/20, /*sets=*/64, /*slots=*/4, /*ops=*/100000);
    runDifferential(ReplPolicy::LRU, IndexFn::Modulo, 910,
                    /*ways=*/16, /*sets=*/128, /*slots=*/4, /*ops=*/60000);
    // 32 ways is the widest associativity the constructor accepts: the
    // all-ways mask is ~0u and the LRU victim key's way field is full.
    runDifferential(ReplPolicy::LRU, IndexFn::Modulo, 3201,
                    /*ways=*/32, /*sets=*/64);
    runDifferential(ReplPolicy::BitPLRU, IndexFn::Modulo, 3202,
                    /*ways=*/32, /*sets=*/64);
}

TEST(MemDifferential, SecondSeedSweep)
{
    // Cheap extra coverage across the policies at another seed.
    runDifferential(ReplPolicy::LRU, IndexFn::Hashed, 2024);
    runDifferential(ReplPolicy::BitPLRU, IndexFn::Modulo, 2025);
    runDifferential(ReplPolicy::TreePLRU, IndexFn::Hashed, 2026);
}

/**
 * Seeded property/fuzz sweep: every iteration derives a random
 * configuration — associativity in {4, 8, 16, 20}, a power-of-two set
 * count in [64, 4096], any of the five policies, either indexing
 * function — and replays a 100k-operation random stream with live
 * way-mask remasks mid-stream. The invariants are those of
 * runDifferential: the hit/miss/eviction stream is identical to the
 * naive reference, every victim lies inside the accessor's mask at
 * eviction time, and the tag/owner planes match the reference exactly.
 */
TEST(MemProperty, FuzzRandomGeometriesAndPolicies)
{
    constexpr std::uint64_t kFuzzSeed = 0xf00dfaceULL;
    constexpr int kConfigs = 6;
    constexpr ReplPolicy kPolicies[] = {
        ReplPolicy::LRU, ReplPolicy::BitPLRU, ReplPolicy::NRU,
        ReplPolicy::Random, ReplPolicy::TreePLRU};
    constexpr unsigned kAssocs[] = {4, 8, 16, 20};

    Rng meta(kFuzzSeed);
    for (int c = 0; c < kConfigs; ++c) {
        const unsigned ways =
            kAssocs[static_cast<unsigned>(meta.below(4))];
        // Sets: 2^6 .. 2^12 (the constructor requires a power of two).
        const unsigned sets = 1u << (6 + meta.below(7));
        const ReplPolicy repl =
            kPolicies[static_cast<unsigned>(meta.below(5))];
        const IndexFn index =
            meta.chance(0.5) ? IndexFn::Hashed : IndexFn::Modulo;
        const std::uint64_t seed = meta.next();
        SCOPED_TRACE(testing::Message()
                     << "config " << c << ": ways=" << ways
                     << " sets=" << sets << " repl="
                     << static_cast<int>(repl) << " hashed="
                     << (index == IndexFn::Hashed) << " seed=" << seed);
        runDifferential(repl, index, seed, ways, sets, /*slots=*/4,
                        /*ops=*/100000);
    }
}

/**
 * Under fixed, disjoint masks every slot's insertions land only in its
 * own ways, so in any set the number of resident lines a slot inserted
 * can never exceed its mask's popcount.
 */
TEST(MemDifferential, OccupancyBoundedByMaskPopcount)
{
    constexpr unsigned kWays = 8;
    constexpr unsigned kSets = 16;
    const CacheConfig cfg =
        diffCache(ReplPolicy::BitPLRU, IndexFn::Hashed, kWays, kSets, 2);
    SetAssocCache hw(cfg, 4242);
    RefCache ref(hw, ReplPolicy::BitPLRU, 2, 4242);

    const WayMask fg = WayMask::range(0, 3); // ways 0..2
    const WayMask bg = WayMask::range(3, 5); // ways 3..7
    hw.setPartitionMask(0, fg);
    hw.setPartitionMask(1, bg);
    ref.setMask(0, fg);
    ref.setMask(1, bg);

    Rng rng(4242);
    for (unsigned op = 0; op < 20000; ++op) {
        const Addr line = rng.below(4 * kSets * kWays);
        const unsigned slot = rng.chance(0.5) ? 0 : 1;
        const CacheAccessResult h = hw.access(line, rng.chance(0.3), slot);
        const CacheAccessResult r =
            ref.access(line, false, slot); // dirtiness irrelevant here
        ASSERT_EQ(h.hit, r.hit) << "op " << op;

        if (op % 256 != 0)
            continue;
        for (std::uint64_t set = 0; set < ref.sets(); ++set) {
            unsigned per_slot[2] = {0, 0};
            for (unsigned w = 0; w < kWays; ++w) {
                Addr l = 0;
                unsigned inserter = 0;
                if (ref.slotContents(set, w, &l, &inserter))
                    ++per_slot[inserter];
            }
            ASSERT_LE(per_slot[0], fg.count()) << "set " << set;
            ASSERT_LE(per_slot[1], bg.count()) << "set " << set;
        }
        // The same bound audited through the hardware owner plane.
        std::vector<unsigned> hw_count(2 * ref.sets(), 0);
        hw.forEachResident([&](Addr l, unsigned) {
            const int owner = hw.ownerOf(l);
            ASSERT_GE(owner, 0);
            ++hw_count[hw.setIndex(l) * 2 +
                       static_cast<unsigned>(owner)];
        });
        for (std::uint64_t set = 0; set < ref.sets(); ++set) {
            ASSERT_LE(hw_count[set * 2 + 0], fg.count()) << "set " << set;
            ASSERT_LE(hw_count[set * 2 + 1], bg.count()) << "set " << set;
        }
    }
}

} // namespace
} // namespace capart
