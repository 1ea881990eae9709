/**
 * @file
 * A way-partitionable set-associative cache model.
 *
 * Partitioning follows the paper's mechanism exactly (§2.1): each
 * partition slot owns a @ref WayMask; lookups hit on data in any way;
 * only victim selection is restricted to the accessor's mask; and
 * changing a mask never flushes resident data.
 *
 * All state lives in flat contiguous planes (DESIGN.md "fast-path
 * layout") — tags, inserter/owner ids, and per-policy replacement
 * bits — and replacement dispatches with a switch on a member enum, so
 * the entire access path inlines into callers with no virtual calls.
 * Tag matches, LRU victims and Tree-PLRU descents over precomputed
 * per-mask tables (mem/plru_tables.hh) are all branch-free.
 * tests/test_mem_differential.cc checks every policy against a naive
 * reference model.
 */

#ifndef CAPART_MEM_SET_ASSOC_CACHE_HH
#define CAPART_MEM_SET_ASSOC_CACHE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "common/logging.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "mem/cache_config.hh"
#include "mem/plru_tables.hh"
#include "mem/way_mask.hh"

namespace capart
{

/** What a cache access did. */
struct CacheAccessResult
{
    bool hit = false;
    /** A valid line was evicted to make room. */
    bool evicted = false;
    /** Line address of the evicted victim (valid iff evicted). */
    Addr victimLine = 0;
    /** The victim was dirty and must be written back outward. */
    bool victimDirty = false;
    /**
     * Inner-presence (core-valid) mask of the evicted victim: bit c set
     * means core c's private caches may hold a copy that must be
     * back-invalidated. Maintained only when tracksInnerPresence();
     * always a superset of the true holders. Meaningful iff `evicted`.
     */
    std::uint64_t victimInner = 0;
    /** Set index of the accessed/filled line. */
    std::uint64_t set = 0;
    /** Way now holding the line (hit or fresh insert); -1 if unknown. */
    std::int32_t way = -1;
};

/** Result of a probe-invalidate (inclusive back-invalidation). */
struct InvalidateResult
{
    bool wasPresent = false;
    bool wasDirty = false;
};

/** Per-partition-slot hit/miss accounting. */
struct PartitionStats
{
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;

    std::uint64_t misses() const { return accesses - hits; }
};

namespace detail
{

/** splitmix64 finalizer; decorrelates set selection from line alignment. */
inline std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ULL;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebULL;
    x ^= x >> 31;
    return x;
}

} // namespace detail

/**
 * A single cache level: tag array, per-set replacement state, and
 * optional partition way masks.
 */
class SetAssocCache
{
  public:
    /**
     * @param cfg   geometry/policy; sets() must be a power of two.
     * @param seed  RNG seed (only the Random policy consumes it).
     */
    explicit SetAssocCache(const CacheConfig &cfg, std::uint64_t seed = 1);

    /**
     * Demand access (read or write) by partition @p slot.
     * Misses allocate; the victim, if any, is reported for inclusive
     * back-invalidation and dirty writeback by the caller.
     */
    CacheAccessResult access(Addr line, bool write, unsigned slot = 0);

    /**
     * Install @p line without demand-counting it (prefetch fill or
     * writeback allocation). Replacement is still mask-restricted.
     */
    CacheAccessResult fill(Addr line, bool dirty, unsigned slot = 0);

    /** True if @p line is resident (no state update). */
    bool probe(Addr line) const;

    /**
     * Way currently holding @p line, or -1 if absent (no state
     * update). Lets differential tests assert that a victim chosen
     * for a slot lay inside that slot's way mask.
     */
    int wayOf(Addr line) const { return findWay(setIndex(line), line); }

    /**
     * Partition slot that inserted the resident @p line, or -1 if the
     * line is absent. Occupancy audits (property tests, future UCP
     * policies) read this owner plane; demand hits by other slots do
     * not transfer ownership.
     */
    int ownerOf(Addr line) const;

    /**
     * Directory upkeep for inclusive caches: record that core @p core's
     * private caches may now hold the line in (@p set, @p way), which
     * the caller knows from the access, fill or markDirty() that
     * located it (no-op if presence is untracked). The mask is sticky
     * until the entry is evicted or invalidated, so it stays a superset
     * of true holders — exactly the core-valid bits an inclusive LLC
     * keeps in hardware.
     */
    void
    noteInnerPresenceAt(std::uint64_t set, std::int32_t way, unsigned core)
    {
        if (inner_.empty() || way < 0 || core >= 64)
            return;
        inner_[set * ways_ + static_cast<unsigned>(way)] |= 1ull << core;
    }

    /** Inner-presence directory allocated (inclusive caches only). */
    bool tracksInnerPresence() const { return !inner_.empty(); }

    /**
     * Mark a resident line dirty and refresh its recency (inner
     * writeback hit); returns its way, or -1 (no-op) if absent.
     */
    int markDirty(Addr line);

    /**
     * Refresh replacement recency of a resident line; returns its way,
     * or -1 (no-op) if absent.
     */
    int touchLine(Addr line);

    /** Remove @p line if present (back-invalidation). */
    InvalidateResult invalidate(Addr line);

    /** Install a partition mask; data is deliberately not flushed. */
    void setPartitionMask(unsigned slot, WayMask mask);

    WayMask partitionMask(unsigned slot) const;

    const CacheConfig &config() const { return cfg_; }
    std::uint64_t sets() const { return sets_; }

    const PartitionStats &slotStats(unsigned slot) const;
    /** Aggregate over all slots. */
    PartitionStats totalStats() const;
    void resetStats();

    /** Number of resident lines whose set index falls in this cache. */
    std::uint64_t residentLines() const;

    /**
     * Visit every resident line as (lineAddr, way). Read-only walk of
     * the tag array in (set, way) order; the attribution sampler uses
     * it to count occupancy per owning application.
     */
    template <typename Fn>
    void
    forEachResident(Fn &&fn) const
    {
        for (std::uint64_t set = 0; set < sets_; ++set) {
            const std::uint32_t valid = valid_[set];
            if (!valid)
                continue;
            for (unsigned way = 0; way < ways_; ++way) {
                if (valid & (1u << way))
                    fn(tags_[set * ways_ + way] - 1, way);
            }
        }
    }

    /** Set index for @p line under this cache's indexing function. */
    std::uint64_t
    setIndex(Addr line) const
    {
        if (hashed_)
            return detail::mix64(line) & (sets_ - 1);
        return line & (sets_ - 1);
    }

  private:
    /**
     * Way of @p line within @p set, or -1. Compares every way's tag in
     * a fixed-trip loop that builds a hit mask, because an early exit
     * at a random way mispredicts. Invalid ways hold tag 0 and a live
     * tag is line + 1 >= 1, so no valid mask is needed and at most one
     * way matches.
     */
    int
    findWay(std::uint64_t set, Addr line) const
    {
        const std::uint64_t tag = line + 1;
        const std::uint64_t *row = tags_.data() + set * ways_;
        std::uint32_t hit = 0;
        for (unsigned w = 0; w < ways_; ++w)
            hit |= static_cast<std::uint32_t>(row[w] == tag) << w;
        return hit ? std::countr_zero(hit) : -1;
    }

    /** Record a use (hit or fill) of @p way in @p set. */
    void
    replTouch(std::uint64_t set, unsigned way)
    {
        switch (policy_) {
          case ReplPolicy::LRU:
            age_[set * ways_ + way] = ++clock_[set];
            return;
          case ReplPolicy::BitPLRU: {
            std::uint32_t bits = rbits_[set] | (1u << way);
            // Saturation: when every way is marked MRU, restart the
            // epoch but keep the just-touched way marked.
            if ((bits & fullMask_) == fullMask_)
                bits = (1u << way);
            rbits_[set] = bits;
            return;
          }
          case ReplPolicy::NRU:
            rbits_[set] |= (1u << way);
            return;
          case ReplPolicy::Random:
            return;
          case ReplPolicy::TreePLRU: {
            std::uint32_t state = tree_[set];
            unsigned node = leaves_ + way;
            while (node > 1) {
                const unsigned parent = node >> 1;
                // Point the parent away from the child we came from.
                const std::uint32_t away = (node & 1u) ^ 1u;
                state = (state & ~(1u << parent)) | (away << parent);
                node = parent;
            }
            tree_[set] = state;
            return;
          }
        }
    }

    /** Victim inside @p slot's mask (invalid ways first). */
    unsigned
    replVictim(std::uint64_t set, unsigned slot)
    {
        const std::uint32_t allowed = masks_[slot].bits();
        const std::uint32_t invalid = allowed & ~valid_[set];
        if (invalid != 0)
            return static_cast<unsigned>(std::countr_zero(invalid));

        switch (policy_) {
          case ReplPolicy::LRU: {
            // Oldest allowed way, chosen with selects, not branches on
            // random ages: the key puts the age above the way index, so
            // the minimum breaks ties toward the lowest way, and a
            // disallowed way's all-ones key never wins.
            capart_assert(allowed != 0);
            const std::uint32_t *age = age_.data() + set * ways_;
            std::uint64_t best = ~std::uint64_t{0};
            for (unsigned w = 0; w < ways_; ++w) {
                const std::uint64_t barred =
                    0 - std::uint64_t{((allowed >> w) & 1u) ^ 1u};
                const std::uint64_t key = (std::uint64_t{age[w]} << 5) | w;
                best = std::min(best, key | barred);
            }
            return static_cast<unsigned>(best & 31u);
          }
          case ReplPolicy::BitPLRU: {
            const std::uint32_t clear = allowed & ~rbits_[set];
            if (clear != 0)
                return static_cast<unsigned>(std::countr_zero(clear));
            // Every allowed way is MRU-marked: treat the mask as one
            // epoch and take the lowest allowed way.
            rbits_[set] &= ~allowed;
            return static_cast<unsigned>(std::countr_zero(allowed));
          }
          case ReplPolicy::NRU: {
            std::uint32_t clear = allowed & ~rbits_[set];
            if (clear == 0) {
                rbits_[set] &= ~allowed;
                clear = allowed;
            }
            return static_cast<unsigned>(std::countr_zero(clear));
          }
          case ReplPolicy::Random: {
            const unsigned n =
                static_cast<unsigned>(std::popcount(allowed));
            unsigned pick = static_cast<unsigned>(rng_.below(n));
            std::uint32_t bits = allowed;
            while (pick--)
                bits &= bits - 1;
            return static_cast<unsigned>(std::countr_zero(bits));
          }
          case ReplPolicy::TreePLRU: {
            // Branch-free descent over the slot's precomputed table:
            // follow the direction bits, flipping only where the
            // pointed-to subtree holds no allowed way.
            const PlruMaskTable &tbl = slotTables_[slot];
            const std::uint32_t state = tree_[set];
            unsigned node = 1;
            for (unsigned lvl = 0; lvl < levels_; ++lvl) {
                const unsigned want = (state >> node) & 1u;
                const unsigned ok = (tbl.node[node] >> want) & 1u;
                node = 2 * node + (want ^ (ok ^ 1u));
            }
            return node - leaves_;
          }
        }
        capart_panic("unknown replacement policy");
    }

    CacheAccessResult
    insert(std::uint64_t set, Addr line, bool dirty, unsigned slot)
    {
        CacheAccessResult res;
        res.set = set;
        capart_assert(line + 1 != 0); // tag 0 marks an invalid way
        capart_assert(!masks_[slot].empty());
        const unsigned victim = replVictim(set, slot);
        capart_assert(victim < ways_);
        capart_assert(masks_[slot].contains(victim));
        res.way = static_cast<std::int32_t>(victim);

        const std::uint64_t idx = set * ways_ + victim;
        const std::uint32_t bit = 1u << victim;
        if (valid_[set] & bit) {
            res.evicted = true;
            res.victimLine = tags_[idx] - 1;
            res.victimDirty = (dirty_[set] & bit) != 0;
        }
        if (!inner_.empty()) {
            res.victimInner = inner_[idx];
            inner_[idx] = 0; // new line starts with no inner copies
        }

        tags_[idx] = line + 1;
        owner_[idx] = static_cast<std::uint8_t>(slot);
        valid_[set] |= bit;
        if (dirty)
            dirty_[set] |= bit;
        else
            dirty_[set] &= ~bit;
        replTouch(set, victim);
        return res;
    }

    CacheConfig cfg_;
    std::uint64_t sets_;
    unsigned ways_;
    bool hashed_;
    ReplPolicy policy_;

    // ---- SoA planes (fast-path layout; see DESIGN.md) ---------------
    /** tag[set*ways+way] = lineAddr+1; 0 means invalid. */
    std::vector<std::uint64_t> tags_;
    /** owner[set*ways+way] = partition slot that inserted the line. */
    std::vector<std::uint8_t> owner_;
    /** inner[set*ways+way] = core-valid mask (inclusive caches only). */
    std::vector<std::uint64_t> inner_;
    std::vector<std::uint32_t> valid_; //!< per-set valid bitmask
    std::vector<std::uint32_t> dirty_; //!< per-set dirty bitmask

    // ---- replacement planes (policy-dependent) ---------------------
    std::vector<std::uint32_t> age_;   //!< LRU: age[set*ways+way]
    std::vector<std::uint32_t> clock_; //!< LRU: per-set tick counter
    std::vector<std::uint32_t> rbits_; //!< BitPLRU mru / NRU ref bits
    std::vector<std::uint32_t> tree_;  //!< TreePLRU direction bits
    /** TreePLRU traversal table per partition slot (mask-derived). */
    std::vector<PlruMaskTable> slotTables_;
    unsigned leaves_ = 1;   //!< TreePLRU padded leaf count
    unsigned levels_ = 0;   //!< TreePLRU tree depth
    std::uint32_t fullMask_; //!< all `ways_` bits set
    Rng rng_;                //!< Random policy only

    std::vector<WayMask> masks_;
    std::vector<PartitionStats> stats_;
};

inline CacheAccessResult
SetAssocCache::access(Addr line, bool write, unsigned slot)
{
    capart_assert(slot < stats_.size());
    ++stats_[slot].accesses;

    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way >= 0) {
        ++stats_[slot].hits;
        replTouch(set, static_cast<unsigned>(way));
        if (write)
            dirty_[set] |= (1u << way);
        return CacheAccessResult{.hit = true, .set = set, .way = way};
    }
    return insert(set, line, write, slot);
}

inline CacheAccessResult
SetAssocCache::fill(Addr line, bool dirty, unsigned slot)
{
    capart_assert(slot < masks_.size());
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way >= 0) {
        replTouch(set, static_cast<unsigned>(way));
        if (dirty)
            dirty_[set] |= (1u << way);
        return CacheAccessResult{.hit = true, .set = set, .way = way};
    }
    return insert(set, line, dirty, slot);
}

inline int
SetAssocCache::touchLine(Addr line)
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way >= 0)
        replTouch(set, static_cast<unsigned>(way));
    return way;
}

inline bool
SetAssocCache::probe(Addr line) const
{
    return findWay(setIndex(line), line) >= 0;
}

} // namespace capart

#endif // CAPART_MEM_SET_ASSOC_CACHE_HH
