/**
 * @file
 * The paper platform's three-level cache hierarchy: per-core private
 * L1D and non-inclusive L2, plus one shared, inclusive, way-partitionable
 * LLC (§2.1). All levels are write-back/write-allocate. Inclusive LLC
 * evictions back-invalidate every inner copy.
 */

#ifndef CAPART_MEM_HIERARCHY_HH
#define CAPART_MEM_HIERARCHY_HH

#include <cstdint>
#include <memory>
#include <vector>

#include "common/types.hh"
#include "mem/cache_config.hh"
#include "mem/set_assoc_cache.hh"

namespace capart
{

/** Which level serviced a demand access. */
enum class ServiceLevel
{
    L1,
    L2,
    LLC,
    Memory
};

/** Everything the timing/energy models need to know about one access. */
struct HierarchyOutcome
{
    ServiceLevel servedBy = ServiceLevel::L1;
    /** Demand or prefetch lines fetched from DRAM by this operation. */
    unsigned dramReads = 0;
    /** Dirty lines pushed to DRAM by evictions this operation caused. */
    unsigned dramWrites = 0;
    /** The access (or fill) reached the LLC lookup path. */
    bool llcAccess = false;
};

/**
 * Private L1/L2 per core plus the shared partitionable LLC.
 *
 * Partition slots are an LLC-wide namespace (the co-scheduler maps one
 * slot per application); L1/L2 are never partitioned, matching the
 * hardware.
 */
class CacheHierarchy
{
  public:
    CacheHierarchy(const HierarchyConfig &cfg, unsigned num_cores,
                   std::uint64_t seed = 1);

    /** Demand load/store from @p core charged to LLC partition @p slot. */
    HierarchyOutcome access(CoreId core, unsigned slot, Addr byte_addr,
                            bool write);

    /** DCU prefetch: pull @p line into @p core's L1 (and LLC, inclusive). */
    HierarchyOutcome prefetchIntoL1(CoreId core, unsigned slot, Addr line);

    /** MLC prefetch: pull @p line into @p core's L2 (and LLC, inclusive). */
    HierarchyOutcome prefetchIntoL2(CoreId core, unsigned slot, Addr line);

    /** Install an LLC partition way mask (never flushes; §2.1). */
    void setLlcPartition(unsigned slot, WayMask mask);
    WayMask llcPartition(unsigned slot) const;

    SetAssocCache &llc() { return *llc_; }
    const SetAssocCache &llc() const { return *llc_; }
    SetAssocCache &l1(CoreId core) { return *l1_.at(core); }
    SetAssocCache &l2(CoreId core) { return *l2_.at(core); }

    unsigned numCores() const { return static_cast<unsigned>(l1_.size()); }
    const HierarchyConfig &config() const { return cfg_; }

    /** Load-to-use latency of @p level in core cycles. */
    Cycles latency(ServiceLevel level, Cycles memLatency) const;

  private:
    /** Writeback a dirty line from an L1 into its L2 (cascades outward). */
    void writebackToL2(CoreId core, Addr line);

    /** Writeback a dirty line from @p core's L2 into the LLC. */
    void writebackToLlc(CoreId core, Addr line);

    /** Handle an LLC eviction: back-invalidate inner copies, count WBs. */
    void handleLlcEviction(const CacheAccessResult &res,
                           HierarchyOutcome &out);

    /** Ensure @p line is resident in the LLC (fill path for prefetches). */
    void ensureInLlc(CoreId core, unsigned slot, Addr line,
                     HierarchyOutcome &out);

    HierarchyConfig cfg_;
    std::vector<std::unique_ptr<SetAssocCache>> l1_;
    std::vector<std::unique_ptr<SetAssocCache>> l2_;
    std::unique_ptr<SetAssocCache> llc_;
};

} // namespace capart

#endif // CAPART_MEM_HIERARCHY_HH
