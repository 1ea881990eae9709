#include "mem/set_assoc_cache.hh"

#include <bit>

#include "common/logging.hh"

namespace capart
{

SetAssocCache::SetAssocCache(const CacheConfig &cfg, std::uint64_t seed)
    : cfg_(cfg),
      sets_(cfg.sets()),
      ways_(cfg.ways),
      hashed_(cfg.index == IndexFn::Hashed),
      policy_(cfg.repl),
      tags_(sets_ * ways_, 0),
      owner_(sets_ * ways_, 0),
      valid_(sets_, 0),
      dirty_(sets_, 0),
      fullMask_((cfg.ways >= 32) ? ~0u : ((1u << cfg.ways) - 1u)),
      rng_(seed)
{
    if (sets_ == 0 || !std::has_single_bit(sets_)) {
        capart_fatal("cache '" << cfg.name << "': size "
                     << cfg.sizeBytes << " B / " << cfg.ways
                     << " ways / " << kLineBytes
                     << " B lines yields " << sets_
                     << " sets; the set count must be a power of two");
    }
    capart_assert(ways_ >= 1 && ways_ <= 32);
    const unsigned slots = cfg.partitionSlots ? cfg.partitionSlots : 1;
    masks_.assign(slots, WayMask::all(ways_));
    stats_.assign(slots, PartitionStats{});
    // Inclusive caches keep a core-valid directory so back-invalidation
    // probes only cores that may actually hold the victim.
    if (cfg.inclusive)
        inner_.assign(sets_ * ways_, 0);

    switch (policy_) {
      case ReplPolicy::LRU:
        age_.assign(sets_ * ways_, 0);
        clock_.assign(sets_, 0);
        break;
      case ReplPolicy::BitPLRU:
      case ReplPolicy::NRU:
        rbits_.assign(sets_, 0);
        break;
      case ReplPolicy::Random:
        break;
      case ReplPolicy::TreePLRU:
        tree_.assign(sets_, 0);
        leaves_ = plruLeaves(ways_);
        levels_ = plruLevels(ways_);
        slotTables_.assign(
            slots, buildPlruMaskTable(ways_, WayMask::all(ways_).bits()));
        break;
    }
}

int
SetAssocCache::ownerOf(Addr line) const
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way < 0)
        return -1;
    return owner_[set * ways_ + static_cast<unsigned>(way)];
}

int
SetAssocCache::markDirty(Addr line)
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way >= 0) {
        dirty_[set] |= (1u << way);
        replTouch(set, static_cast<unsigned>(way));
    }
    return way;
}

InvalidateResult
SetAssocCache::invalidate(Addr line)
{
    const std::uint64_t set = setIndex(line);
    const int way = findWay(set, line);
    if (way < 0)
        return InvalidateResult{};
    const std::uint32_t bit = 1u << static_cast<unsigned>(way);
    InvalidateResult res;
    res.wasPresent = true;
    res.wasDirty = (dirty_[set] & bit) != 0;
    valid_[set] &= ~bit;
    dirty_[set] &= ~bit;
    tags_[set * ways_ + static_cast<unsigned>(way)] = 0;
    if (!inner_.empty())
        inner_[set * ways_ + static_cast<unsigned>(way)] = 0;
    switch (policy_) {
      case ReplPolicy::LRU:
        age_[set * ways_ + static_cast<unsigned>(way)] = 0;
        break;
      case ReplPolicy::BitPLRU:
      case ReplPolicy::NRU:
        rbits_[set] &= ~bit;
        break;
      case ReplPolicy::Random:
      case ReplPolicy::TreePLRU:
        // Nothing to forget: victim() prefers invalid allowed ways
        // before consulting policy state.
        break;
    }
    return res;
}

void
SetAssocCache::setPartitionMask(unsigned slot, WayMask mask)
{
    capart_assert(slot < masks_.size());
    capart_assert(!mask.empty());
    capart_assert((mask & WayMask::all(ways_)) == mask);
    masks_[slot] = mask;
    if (policy_ == ReplPolicy::TreePLRU)
        slotTables_[slot] = buildPlruMaskTable(ways_, mask.bits());
}

WayMask
SetAssocCache::partitionMask(unsigned slot) const
{
    capart_assert(slot < masks_.size());
    return masks_[slot];
}

const PartitionStats &
SetAssocCache::slotStats(unsigned slot) const
{
    capart_assert(slot < stats_.size());
    return stats_[slot];
}

PartitionStats
SetAssocCache::totalStats() const
{
    PartitionStats total;
    for (const auto &s : stats_) {
        total.accesses += s.accesses;
        total.hits += s.hits;
    }
    return total;
}

void
SetAssocCache::resetStats()
{
    for (auto &s : stats_)
        s = PartitionStats{};
}

std::uint64_t
SetAssocCache::residentLines() const
{
    std::uint64_t n = 0;
    for (std::uint32_t v : valid_)
        n += std::popcount(v);
    return n;
}

} // namespace capart
