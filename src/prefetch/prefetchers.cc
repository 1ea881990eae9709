#include "prefetch/prefetchers.hh"

namespace capart
{

PrefetcherBank::PrefetcherBank(const PrefetchConfig &cfg)
    : cfg_(cfg)
{
    recentLine_.fill(~0ULL);
    recentCount_.fill(0);
}

void
PrefetcherBank::observe(std::uint64_t pc, Addr line, bool missed_l1,
                        std::vector<PrefetchRequest> &out)
{
    if (cfg_.dcuIp)
        trainDcuIp(pc, line, out);
    if (cfg_.dcuStreamer)
        trainDcuStreamer(line, out);
    // The MLC units sit behind the L1 and only see the miss stream.
    if (missed_l1) {
        if (cfg_.mlcSpatial)
            trainMlcSpatial(line, out);
        if (cfg_.mlcStreamer)
            trainMlcStreamer(line, out);
    }
}

void
PrefetcherBank::trainDcuIp(std::uint64_t pc, Addr line,
                           std::vector<PrefetchRequest> &out)
{
    IpEntry &e = ipTable_[pc % kIpEntries];
    if (e.tag != pc) {
        e.tag = pc;
        e.lastLine = line;
        e.stride = 0;
        e.confidence = 0;
        return;
    }
    const std::int64_t stride =
        static_cast<std::int64_t>(line) -
        static_cast<std::int64_t>(e.lastLine);
    if (stride != 0 && stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        e.confidence = 0;
    }
    e.stride = stride;
    e.lastLine = line;
    if (e.confidence >= 2 && stride != 0) {
        out.push_back(PrefetchRequest{
            static_cast<Addr>(static_cast<std::int64_t>(line) + stride),
            true});
        ++stats_.dcuIpIssued;
    }
}

void
PrefetcherBank::trainDcuStreamer(Addr line, std::vector<PrefetchRequest> &out)
{
    // Look for the line in the recent-access buffer; a second touch
    // within the buffer's lifetime triggers a next-line prefetch.
    for (unsigned i = 0; i < kRecentLines; ++i) {
        if (recentLine_[i] == line) {
            if (++recentCount_[i] == 2) {
                out.push_back(PrefetchRequest{line + 1, true});
                ++stats_.dcuStreamIssued;
            }
            return;
        }
    }
    recentLine_[recentNext_] = line;
    recentCount_[recentNext_] = 1;
    recentNext_ = (recentNext_ + 1) % kRecentLines;
}

void
PrefetcherBank::trainMlcSpatial(Addr line, std::vector<PrefetchRequest> &out)
{
    // Two successive lines trigger a fetch of the next adjacent line.
    if (lastMlcLine_ != ~0ULL && line == lastMlcLine_ + 1) {
        out.push_back(PrefetchRequest{line + 1, false});
        ++stats_.mlcSpatialIssued;
    }
    lastMlcLine_ = line;
}

void
PrefetcherBank::trainMlcStreamer(Addr line, std::vector<PrefetchRequest> &out)
{
    const std::uint64_t page = line / kPageLines;
    StreamEntry &e = streamTable_[page % kStreamEntries];
    if (e.page != page) {
        e.page = page;
        e.lastLine = line;
        e.direction = 0;
        e.confidence = 0;
        return;
    }
    const int dir = (line > e.lastLine) ? 1 : (line < e.lastLine ? -1 : 0);
    if (dir != 0 && dir == e.direction) {
        if (e.confidence < 3)
            ++e.confidence;
    } else if (dir != 0) {
        e.direction = dir;
        e.confidence = 1;
    }
    e.lastLine = line;
    if (e.confidence >= 2) {
        for (unsigned d = 1; d <= kStreamDegree; ++d) {
            const std::int64_t target =
                static_cast<std::int64_t>(line) + e.direction *
                static_cast<std::int64_t>(d);
            if (target < 0)
                break;
            // Streams do not cross 4 KB page boundaries (physical
            // prefetchers cannot).
            if (static_cast<Addr>(target) / kPageLines != page)
                break;
            out.push_back(PrefetchRequest{static_cast<Addr>(target), false});
            ++stats_.mlcStreamIssued;
        }
    }
}

} // namespace capart
