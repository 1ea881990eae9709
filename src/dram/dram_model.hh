/**
 * @file
 * Off-chip DRAM interface model: shared bandwidth with queueing delay,
 * per-flow (per-application) traffic accounting so concurrent flows
 * split the pins fairly, and read/write counters for the energy model.
 */

#ifndef CAPART_DRAM_DRAM_MODEL_HH
#define CAPART_DRAM_DRAM_MODEL_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "interconnect/bandwidth_domain.hh"

namespace capart
{

/** DRAM interface configuration. */
struct DramConfig
{
    /**
     * Sustained bandwidth of the dual-channel DDR3-1333 interface.
     * The rated peak is 21.3 GB/s; mixed read/write streams from
     * multiple cores sustain roughly 80 % of that.
     */
    double peakBytesPerSec = 17e9;
    /** Unloaded DRAM access latency in core cycles. */
    Cycles baseLatency = 180;
    /** Loaded latency tops out around 1.7x unloaded on this platform:
     *  bandwidth starvation, not raw latency, is what crushes victims
     *  (the paper's worst cases are all bandwidth-bound, §8). */
    double maxQueueFactor = 1.7;
    double queueGain = 0.18;
    /** Floor on the bandwidth any one flow can be squeezed to. */
    double minShare = 0.10;
    /**
     * Physical channels behind the shared interface (dual-channel
     * DDR3-1333 on the paper's platform). Only the observability-side
     * per-channel traffic split depends on this; timing models the
     * channels as one aggregated pipe.
     */
    unsigned channels = 2;
};

/**
 * Shared DRAM bandwidth domain. Traffic is attributed to flows
 * (applications) so the simulator can bound each flow's throughput by
 * the bandwidth its competitors leave available — the mechanism behind
 * the paper's Fig. 4 bandwidth-sensitivity results.
 */
class DramModel
{
  public:
    explicit DramModel(const DramConfig &cfg = DramConfig{});

    /** Account @p lines read from DRAM by @p flow at time @p now. */
    void recordRead(Seconds now, unsigned lines, unsigned flow = 0);

    /** Account @p lines of dirty writebacks by @p flow at time @p now. */
    void recordWrite(Seconds now, unsigned lines, unsigned flow = 0);

    /** Uncached/streaming bytes that bypass the caches. */
    void recordUncached(Seconds now, std::uint64_t bytes,
                        unsigned flow = 0);

    /**
     * Record @p flow's *demanded* bandwidth: @p amount window-weighted
     * bytes such that the windowed rate equals bytes/(unthrottled time).
     * Demand can exceed the pins; availableFor() splits the peak
     * proportionally to demand, the way a request-level scheduler
     * serves the flows with more outstanding requests more often.
     */
    void recordDemand(Seconds now, std::uint64_t amount, unsigned flow);

    /** Effective per-miss latency under current total load. */
    Cycles effectiveLatency(Seconds now) const;

    /** Total utilization fraction, clamped to [0, 0.995]. */
    double utilization(Seconds now) const;

    /**
     * Bandwidth available to @p flow. When total demand fits under the
     * peak, a flow may use whatever the others leave; once the pins
     * oversubscribe, the peak is split proportionally to (capped)
     * per-flow demand, floored at minShare x peak.
     */
    double availableFor(Seconds now, unsigned flow) const;

    std::uint64_t readLines() const { return reads_; }
    std::uint64_t writeLines() const { return writes_; }
    std::uint64_t uncachedBytes() const { return uncached_; }

    /** Total bytes moved over the interface. */
    std::uint64_t totalBytes() const;

    unsigned channels() const { return cfg_.channels; }

    /**
     * Bytes @p flow moved over channel @p ch (observability-only; zero
     * unless obs recording was enabled while the traffic flowed).
     * Traffic is interleaved across channels deterministically per
     * flow, so over any window the split is near-even — the model has
     * no channel-aware address mapping to bias it.
     */
    std::uint64_t channelBytes(unsigned flow, unsigned ch) const;

    /** Bytes all flows together moved over channel @p ch. */
    std::uint64_t channelBytesTotal(unsigned ch) const;

    /** Flows with recorded per-channel traffic. */
    unsigned channelFlows() const
    {
        return static_cast<unsigned>(channelBytes_.size());
    }

    const DramConfig &config() const { return cfg_; }

  private:
    RateWindow &flowWindow(std::vector<RateWindow> &set, unsigned flow);

    /** Attribute @p bytes of @p flow's traffic across the channels. */
    void stripeChannels(unsigned flow, std::uint64_t bytes);

    DramConfig cfg_;
    BandwidthDomain domain_;
    std::vector<RateWindow> demands_; //!< demanded per-flow traffic
    std::uint64_t reads_ = 0;
    std::uint64_t writes_ = 0;
    std::uint64_t uncached_ = 0;
    /** Per-flow per-channel byte counters (obs-gated). */
    std::vector<std::vector<std::uint64_t>> channelBytes_;
    /** Per-flow round-robin cursor for remainder bytes. */
    std::vector<unsigned> channelCursor_;
};

} // namespace capart

#endif // CAPART_DRAM_DRAM_MODEL_HH
