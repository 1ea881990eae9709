/**
 * @file
 * The hot-path replay: a workload's own app mixes stepped quantum by
 * quantum through the simulator's component classes — workload
 * generator, cache hierarchy, prefetchers, DRAM, ring, core timing,
 * energy and perf monitor — making the same public calls as
 * System::stepHt, in the same order, with a steady-clock read between
 * layer calls. Clock reads are per quantum, never per access; the
 * prefetchers' share of the access drain is measured by re-timing
 * PrefetcherBank::observe on a sample of quanta.
 *
 * Caches start empty, as they do in every sweep point. The replay runs
 * with the shared (unpartitioned) LLC and no partition controller, and
 * leaves out System's own observability bookkeeping.
 */

#ifndef CAPART_BENCHMARK_REPLAY_HH
#define CAPART_BENCHMARK_REPLAY_HH

#include <array>
#include <cstdint>
#include <string>

#include "spans.hh"
#include "workloads.hh"

namespace capart::harness
{

/** Where a quantum's host time goes, in stepHt's call order. */
enum class Layer
{
    Sched,        //!< picking the next thread, completion bookkeeping
    Workload,     //!< ThreadWorkload::runQuantum
    Mem,          //!< the access drain: hierarchy + prefetchers
    Dram,         //!< DramModel
    Interconnect, //!< RingInterconnect
    Cpu,          //!< CoreTimingModel
    Energy,       //!< EnergyModel
    Perf,         //!< PerfMonitor and per-app counters
    Count
};

inline constexpr std::size_t kNumLayers =
    static_cast<std::size_t>(Layer::Count);

/** Counts and host time of one replay. */
struct ReplayStats
{
    std::uint64_t quanta = 0;
    std::uint64_t insts = 0;
    /** Every generated access; `cached` of them used the hierarchy. */
    std::uint64_t accesses = 0;
    std::uint64_t cached = 0;
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;
    std::uint64_t llcHits = 0;
    std::uint64_t llcMisses = 0;
    std::uint64_t dramLines = 0;
    std::uint64_t prefetchRequests = 0;
    std::array<std::int64_t, kNumLayers> ns{};
    /** Re-timed PrefetcherBank::observe calls on the sampled quanta. */
    std::int64_t retimeNs = 0;
    std::uint64_t retimeAccesses = 0;
    /** The re-timed calls issued the prefetches the drain issued. */
    bool retimeMatched = true;

    std::int64_t layerNs(Layer l) const { return ns[static_cast<int>(l)]; }
    /** Sum over the quanta of their first to last clock reading. */
    std::int64_t spanNs() const;
    /** Estimated prefetcher share of the Mem layer. */
    double prefetchNs() const;
};

/**
 * Replay @p quanta quanta, split evenly over up to six of @p w's points
 * (first and last included), at base seed @p seed. Every app restarts
 * when it finishes, so the replay never runs dry. Records a "replay"
 * span with one "replay.mix" child per point on @p rec.
 */
ReplayStats runReplay(const Workload &w, std::uint64_t seed,
                      std::uint64_t quanta, SpanRecorder &rec);

/**
 * Replay @p w's first point to completion with its real foreground and
 * background roles and compare it with the simulator's own run of the
 * same machine (runSolo, runPair, or runNApp under the shared LLC).
 * Returns "" when completion times, retired instructions and socket
 * energy agree exactly, else what differed.
 */
std::string checkReplayFidelity(const Workload &w, std::uint64_t seed);

/** Median host microseconds to build a System for @p w's first point. */
double systemBuildUs(const Workload &w, std::uint64_t seed);

} // namespace capart::harness

#endif // CAPART_BENCHMARK_REPLAY_HH
