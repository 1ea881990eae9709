/**
 * @file
 * Models of the four Sandy Bridge hardware prefetchers (§3.3):
 *
 *  1. DCU IP prefetcher       — per-PC stride detection into the L1D.
 *  2. DCU streamer            — repeated reads to one line trigger a
 *                               next-line prefetch into the L1D.
 *  3. MLC spatial prefetcher  — accesses to two successive lines trigger
 *                               an adjacent-line prefetch into the L2.
 *  4. MLC streamer            — per-page stream detection, prefetches
 *                               ahead into the L2.
 *
 * Each unit can be switched on or off, as MSR 0x1A4 allows on real
 * hardware; a System fixes the set when it is built.
 */

#ifndef CAPART_PREFETCH_PREFETCHERS_HH
#define CAPART_PREFETCH_PREFETCHERS_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace capart
{

/** Which prefetchers are active on a core. */
struct PrefetchConfig
{
    bool mlcStreamer = true;
    bool mlcSpatial = true;
    bool dcuStreamer = true;
    bool dcuIp = true;

    /** All four on (hardware default) or all four off. */
    static PrefetchConfig
    allEnabled(bool on)
    {
        return PrefetchConfig{on, on, on, on};
    }

    bool operator==(const PrefetchConfig &) const = default;
};

/** One prefetch the bank wants issued. */
struct PrefetchRequest
{
    Addr line = 0;
    bool intoL1 = false; //!< true: DCU target (L1D); false: MLC (L2)
};

/** Per-prefetcher issue counters. */
struct PrefetchStats
{
    std::uint64_t dcuIpIssued = 0;
    std::uint64_t dcuStreamIssued = 0;
    std::uint64_t mlcSpatialIssued = 0;
    std::uint64_t mlcStreamIssued = 0;

    std::uint64_t
    totalIssued() const
    {
        return dcuIpIssued + dcuStreamIssued + mlcSpatialIssued +
               mlcStreamIssued;
    }
};

/**
 * The prefetch units attached to one core. The simulator reports every
 * demand access; the bank appends any prefetch requests to a caller-owned
 * vector (no allocation on the common path).
 */
class PrefetcherBank
{
  public:
    explicit PrefetcherBank(const PrefetchConfig &cfg = PrefetchConfig{});

    /**
     * Train on a demand access and emit prefetch requests.
     *
     * @param pc          synthetic instruction pointer of the access.
     * @param line        line address demanded.
     * @param missed_l1   the access missed the L1 (MLC units train on the
     *                    L2-visible stream only).
     * @param out         requests are appended here.
     */
    void observe(std::uint64_t pc, Addr line, bool missed_l1,
                 std::vector<PrefetchRequest> &out);

    const PrefetchStats &stats() const { return stats_; }
    void resetStats() { stats_ = PrefetchStats{}; }

  private:
    /** DCU IP table entry: last line + stride + 2-bit confidence. */
    struct IpEntry
    {
        std::uint64_t tag = 0;
        Addr lastLine = 0;
        std::int64_t stride = 0;
        unsigned confidence = 0;
    };

    /** MLC streamer entry: one per detected 4 KB page stream. */
    struct StreamEntry
    {
        std::uint64_t page = ~0ULL;
        Addr lastLine = 0;
        int direction = 0;
        unsigned confidence = 0;
    };

    static constexpr unsigned kIpEntries = 64;
    static constexpr unsigned kStreamEntries = 16;
    static constexpr unsigned kRecentLines = 8;
    static constexpr unsigned kStreamDegree = 2;
    /** Lines per 4 KB page. */
    static constexpr Addr kPageLines = 4096 / kLineBytes;

    void trainDcuIp(std::uint64_t pc, Addr line,
                    std::vector<PrefetchRequest> &out);
    void trainDcuStreamer(Addr line, std::vector<PrefetchRequest> &out);
    void trainMlcSpatial(Addr line, std::vector<PrefetchRequest> &out);
    void trainMlcStreamer(Addr line, std::vector<PrefetchRequest> &out);

    PrefetchConfig cfg_;
    PrefetchStats stats_;

    std::array<IpEntry, kIpEntries> ipTable_{};
    std::array<StreamEntry, kStreamEntries> streamTable_{};
    /** Recently demanded lines + per-line repeat counts (DCU streamer). */
    std::array<Addr, kRecentLines> recentLine_{};
    std::array<unsigned, kRecentLines> recentCount_{};
    unsigned recentNext_ = 0;
    /** Last L2-visible line (MLC spatial successive-line detector). */
    Addr lastMlcLine_ = ~0ULL;
};

} // namespace capart

#endif // CAPART_PREFETCH_PREFETCHERS_HH
