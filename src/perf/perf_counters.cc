#include "perf/perf_counters.hh"

#include "common/logging.hh"

namespace capart
{

PerfMonitor::PerfMonitor(Seconds window_length)
    : windowLength_(window_length)
{
    capart_assert(window_length > 0.0);
}

void
PerfMonitor::record(Seconds now, Insts insts, std::uint64_t llc_accesses,
                    std::uint64_t llc_misses)
{
    while (now >= windowStart_ + windowLength_)
        closeWindow(windowStart_ + windowLength_);
    insts_ += insts;
    acc_ += llc_accesses;
    miss_ += llc_misses;
}

void
PerfMonitor::closeWindow(Seconds boundary)
{
    PerfWindow w;
    w.start = windowStart_;
    w.end = boundary;
    w.insts = insts_;
    w.llcAccesses = acc_;
    w.llcMisses = miss_;
    if (insts_ > 0) {
        w.mpki = 1000.0 * static_cast<double>(miss_) /
                 static_cast<double>(insts_);
        w.apki = 1000.0 * static_cast<double>(acc_) /
                 static_cast<double>(insts_);
    }
    // The window index counts every closed window (delivered or not) so
    // fault decisions stay deterministic regardless of earlier drops.
    const std::uint64_t index = closed_++;
    windowStart_ = boundary;
    insts_ = 0;
    acc_ = 0;
    miss_ = 0;
    if (hook_ && !hook_->onWindowClose(stream_, index, w)) {
        ++dropped_;
        return;
    }
    windows_.push_back(w);
}

} // namespace capart
