#include "mem/hierarchy.hh"

#include "common/logging.hh"

namespace capart
{

CacheHierarchy::CacheHierarchy(const HierarchyConfig &cfg,
                               unsigned num_cores, std::uint64_t seed)
    : cfg_(cfg)
{
    capart_assert(num_cores >= 1);
    for (unsigned c = 0; c < num_cores; ++c) {
        l1_.push_back(std::make_unique<SetAssocCache>(cfg.l1, seed + c));
        l2_.push_back(
            std::make_unique<SetAssocCache>(cfg.l2, seed + 100 + c));
    }
    llc_ = std::make_unique<SetAssocCache>(cfg.llc, seed + 1000);
}

void
CacheHierarchy::writebackToLlc(CoreId core, Addr line)
{
    // Every LLC eviction back-invalidates all holders, so a dirty L2
    // victim is always LLC-resident: the writeback only marks it dirty
    // and never fills, and so never evicts. The line may survive in the
    // core's L1 (non-inclusive L2), so the directory keeps the core
    // marked.
    const int way = llc_->markDirty(line);
    capart_assert(way >= 0);
    llc_->noteInnerPresenceAt(llc_->setIndex(line), way, core);
}

void
CacheHierarchy::writebackToL2(CoreId core, Addr line)
{
    // Non-inclusive L2: the line may or may not be resident. Allocate on
    // writeback (victim cache behaviour), cascading any dirty L2 victim.
    if (l2_[core]->markDirty(line) >= 0)
        return;
    const CacheAccessResult res = l2_[core]->fill(line, true, 0);
    if (res.evicted && res.victimDirty)
        writebackToLlc(core, res.victimLine);
}

void
CacheHierarchy::handleLlcEviction(const CacheAccessResult &res,
                                  HierarchyOutcome &out)
{
    capart_assert(res.evicted);
    bool dirty = res.victimDirty;
    // Inclusive LLC: no inner cache may keep a line the LLC evicts.
    // The core-valid directory names every core that may hold a copy
    // (a superset — probing a non-holder is a harmless no-op), so
    // back-invalidation is O(holders) instead of O(cores); without a
    // directory (non-inclusive config, >64 cores) probe everyone.
    const bool tracked =
        llc_->tracksInnerPresence() && numCores() <= 64;
    for (unsigned c = 0; c < numCores(); ++c) {
        if (tracked && !((res.victimInner >> c) & 1ull))
            continue;
        const InvalidateResult i1 = l1_[c]->invalidate(res.victimLine);
        dirty = dirty || i1.wasDirty;
        const InvalidateResult i2 = l2_[c]->invalidate(res.victimLine);
        dirty = dirty || i2.wasDirty;
    }
    if (dirty)
        ++out.dramWrites;
}

HierarchyOutcome
CacheHierarchy::access(CoreId core, unsigned slot, Addr byte_addr,
                       bool write)
{
    capart_assert(core < numCores());
    HierarchyOutcome out;
    const Addr line = lineAddr(byte_addr);

    // L1 lookup. On a miss the line is allocated immediately; the
    // displaced victim spills into the L2.
    const CacheAccessResult r1 = l1_[core]->access(line, write, 0);
    if (r1.hit) {
        out.servedBy = ServiceLevel::L1;
        return out;
    }
    if (r1.evicted && r1.victimDirty)
        writebackToL2(core, r1.victimLine);

    const CacheAccessResult r2 = l2_[core]->access(line, false, 0);
    if (r2.evicted && r2.victimDirty)
        writebackToLlc(core, r2.victimLine);
    if (r2.hit) {
        out.servedBy = ServiceLevel::L2;
        return out;
    }

    out.llcAccess = true;
    const CacheAccessResult r3 = llc_->access(line, false, slot);
    llc_->noteInnerPresenceAt(r3.set, r3.way, core);
    if (r3.evicted)
        handleLlcEviction(r3, out);
    if (r3.hit) {
        out.servedBy = ServiceLevel::LLC;
        return out;
    }

    out.servedBy = ServiceLevel::Memory;
    ++out.dramReads;
    return out;
}

void
CacheHierarchy::ensureInLlc(CoreId core, unsigned slot, Addr line,
                            HierarchyOutcome &out)
{
    const int touched = llc_->touchLine(line);
    if (touched >= 0) {
        // Already resident; refreshed recency so the prefetched line is
        // not the next victim.
        llc_->noteInnerPresenceAt(llc_->setIndex(line), touched, core);
        return;
    }
    out.llcAccess = true;
    ++out.dramReads;
    const CacheAccessResult res = llc_->fill(line, false, slot);
    llc_->noteInnerPresenceAt(res.set, res.way, core);
    if (res.evicted)
        handleLlcEviction(res, out);
}

HierarchyOutcome
CacheHierarchy::prefetchIntoL1(CoreId core, unsigned slot, Addr line)
{
    capart_assert(core < numCores());
    HierarchyOutcome out;
    if (l1_[core]->probe(line))
        return out;

    if (!l2_[core]->probe(line))
        ensureInLlc(core, slot, line, out);

    const CacheAccessResult r1 = l1_[core]->fill(line, false, 0);
    if (r1.evicted && r1.victimDirty)
        writebackToL2(core, r1.victimLine);
    return out;
}

HierarchyOutcome
CacheHierarchy::prefetchIntoL2(CoreId core, unsigned slot, Addr line)
{
    capart_assert(core < numCores());
    HierarchyOutcome out;
    if (l2_[core]->probe(line) || l1_[core]->probe(line))
        return out;

    ensureInLlc(core, slot, line, out);

    const CacheAccessResult r2 = l2_[core]->fill(line, false, 0);
    if (r2.evicted && r2.victimDirty)
        writebackToLlc(core, r2.victimLine);
    return out;
}

void
CacheHierarchy::setLlcPartition(unsigned slot, WayMask mask)
{
    llc_->setPartitionMask(slot, mask);
}

WayMask
CacheHierarchy::llcPartition(unsigned slot) const
{
    return llc_->partitionMask(slot);
}

Cycles
CacheHierarchy::latency(ServiceLevel level, Cycles mem_latency) const
{
    switch (level) {
      case ServiceLevel::L1:
        return cfg_.l1Latency;
      case ServiceLevel::L2:
        return cfg_.l2Latency;
      case ServiceLevel::LLC:
        return cfg_.llcLatency;
      case ServiceLevel::Memory:
        return cfg_.llcLatency + mem_latency;
    }
    capart_panic("unknown service level");
}

} // namespace capart
