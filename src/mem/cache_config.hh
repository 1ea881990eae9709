/**
 * @file
 * Static configuration for one cache level and for the paper's 3-level
 * Sandy Bridge hierarchy (32 KB L1D, 256 KB L2, 6 MB / 12-way LLC).
 */

#ifndef CAPART_MEM_CACHE_CONFIG_HH
#define CAPART_MEM_CACHE_CONFIG_HH

#include <cstdint>
#include <string>

#include "common/types.hh"
#include "common/units.hh"

namespace capart
{

/** Replacement policy selector for a cache level. */
enum class ReplPolicy
{
    LRU,      //!< true least-recently-used (exact stack order)
    BitPLRU,  //!< one MRU bit per way; victim = first non-MRU way
    NRU,      //!< not-recently-used with periodic bit clearing
    Random,   //!< uniform random among replaceable ways
    TreePLRU  //!< binary-tree PLRU with mask-restricted descent
};

/** Set-index mapping selector. */
enum class IndexFn
{
    Modulo, //!< classic low-order-bits indexing
    Hashed  //!< multiplicative hash, models Sandy Bridge slice hashing
};

/** Geometry and behaviour of a single cache level. */
struct CacheConfig
{
    std::string name = "cache";
    std::uint64_t sizeBytes = mib(6);
    unsigned ways = 12;
    ReplPolicy repl = ReplPolicy::BitPLRU;
    IndexFn index = IndexFn::Modulo;
    /** True if evictions must back-invalidate inner levels (inclusive). */
    bool inclusive = false;
    /** Number of partition way-mask registers (0 disables partitioning). */
    unsigned partitionSlots = 0;

    /** Number of sets implied by size/ways/line size. */
    std::uint64_t
    sets() const
    {
        return sizeBytes / (static_cast<std::uint64_t>(ways) * kLineBytes);
    }
};

/** Parameters of the full private-L1/private-L2/shared-LLC hierarchy. */
struct HierarchyConfig
{
    CacheConfig l1;
    CacheConfig l2;
    CacheConfig llc;

    /** Load-to-use latencies in core cycles (approximate Sandy Bridge). */
    Cycles l1Latency = 4;
    Cycles l2Latency = 12;
    Cycles llcLatency = 30;

    /**
     * Default configuration mirroring the paper's platform (§2.1):
     * 32 KB 8-way L1D, 256 KB 8-way non-inclusive L2, 6 MB 12-way
     * inclusive LLC with hashed indexing and 16 partition slots.
     */
    static HierarchyConfig sandyBridge();
};

} // namespace capart

#endif // CAPART_MEM_CACHE_CONFIG_HH
