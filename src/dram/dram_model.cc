#include "dram/dram_model.hh"

#include <algorithm>

#include "common/logging.hh"
#include "obs/obs.hh"

namespace capart
{

namespace
{

constexpr unsigned kMaxFlows = 64;

BandwidthDomainConfig
toDomainConfig(const DramConfig &cfg)
{
    BandwidthDomainConfig d;
    d.peakBytesPerSec = cfg.peakBytesPerSec;
    d.baseLatency = cfg.baseLatency;
    d.maxQueueFactor = cfg.maxQueueFactor;
    d.queueGain = cfg.queueGain;
    return d;
}

} // namespace

DramModel::DramModel(const DramConfig &cfg)
    : cfg_(cfg), domain_(toDomainConfig(cfg))
{
}

RateWindow &
DramModel::flowWindow(std::vector<RateWindow> &set, unsigned flow)
{
    capart_assert(flow < kMaxFlows);
    const BandwidthDomainConfig &d = domain_.config();
    while (set.size() <= flow)
        set.emplace_back(d.bucketWidth, d.buckets);
    return set[flow];
}

void
DramModel::stripeChannels(unsigned flow, std::uint64_t bytes)
{
    if (!obs::enabled() || bytes == 0)
        return;
    capart_assert(flow < kMaxFlows);
    const unsigned chans = std::max(cfg_.channels, 1u);
    while (channelBytes_.size() <= flow) {
        channelBytes_.emplace_back(chans, 0);
        channelCursor_.push_back(0);
    }
    std::vector<std::uint64_t> &per = channelBytes_[flow];
    // Even split, with the indivisible remainder parked on a rotating
    // cursor so repeated small transfers still spread out. Exact:
    // the per-channel counters always sum to the bytes recorded.
    const std::uint64_t each = bytes / chans;
    for (unsigned c = 0; c < chans; ++c)
        per[c] += each;
    unsigned &cursor = channelCursor_[flow];
    per[cursor] += bytes % chans;
    cursor = (cursor + 1) % chans;
}

void
DramModel::recordRead(Seconds now, unsigned lines, unsigned flow)
{
    reads_ += lines;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(lines) * kLineBytes;
    domain_.record(now, bytes);
    stripeChannels(flow, bytes);
}

void
DramModel::recordWrite(Seconds now, unsigned lines, unsigned flow)
{
    writes_ += lines;
    const std::uint64_t bytes =
        static_cast<std::uint64_t>(lines) * kLineBytes;
    domain_.record(now, bytes);
    stripeChannels(flow, bytes);
}

void
DramModel::recordUncached(Seconds now, std::uint64_t bytes, unsigned flow)
{
    uncached_ += bytes;
    domain_.record(now, bytes);
    stripeChannels(flow, bytes);
}

std::uint64_t
DramModel::channelBytes(unsigned flow, unsigned ch) const
{
    if (flow >= channelBytes_.size() || ch >= channelBytes_[flow].size())
        return 0;
    return channelBytes_[flow][ch];
}

std::uint64_t
DramModel::channelBytesTotal(unsigned ch) const
{
    std::uint64_t total = 0;
    for (const auto &per : channelBytes_)
        total += ch < per.size() ? per[ch] : 0;
    return total;
}

void
DramModel::recordDemand(Seconds now, std::uint64_t amount, unsigned flow)
{
    flowWindow(demands_, flow).record(now, amount);
}

Cycles
DramModel::effectiveLatency(Seconds now) const
{
    return domain_.effectiveLatency(now);
}

double
DramModel::utilization(Seconds now) const
{
    return domain_.utilization(now);
}

double
DramModel::availableFor(Seconds now, unsigned flow) const
{
    const double peak = cfg_.peakBytesPerSec;
    // Per-flow demand, capped: one flow cannot claim arbitrarily large
    // scheduler weight no matter how fast it *could* issue.
    const double cap = peak;
    double mine = 0.0;
    double total = 0.0;
    for (unsigned f = 0; f < demands_.size(); ++f) {
        const double d = std::min(demands_[f].rate(now), cap);
        total += d;
        if (f == flow)
            mine = d;
    }
    double avail;
    if (total <= peak) {
        // Undersubscribed: a flow may take whatever the others leave.
        avail = peak - (total - mine);
    } else {
        // Oversubscribed: proportional share by demand weight.
        avail = mine > 0.0 ? peak * mine / total : peak * cfg_.minShare;
    }
    return std::max(avail, cfg_.minShare * peak);
}

std::uint64_t
DramModel::totalBytes() const
{
    return (reads_ + writes_) * kLineBytes + uncached_;
}

} // namespace capart
