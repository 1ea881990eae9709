/**
 * @file
 * The simulated machine and its quantum-interleaved execution loop.
 *
 * Hardware threads advance in small instruction quanta ordered by local
 * simulated time (the thread furthest behind runs next), so memory
 * accesses from co-scheduled applications interleave at microsecond
 * granularity in the shared LLC, ring, and DRAM — the contention the
 * paper measures. Timing feedback (miss latencies, SMT sharing,
 * bandwidth queueing) is applied per quantum.
 */

#ifndef CAPART_SIM_SYSTEM_HH
#define CAPART_SIM_SYSTEM_HH

#include <limits>
#include <memory>
#include <optional>
#include <vector>

#include "common/types.hh"
#include "cpu/core_model.hh"
#include "dram/dram_model.hh"
#include "energy/energy_model.hh"
#include "interconnect/ring.hh"
#include "mem/hierarchy.hh"
#include "perf/perf_counters.hh"
#include "prefetch/prefetchers.hh"
#include "sim/run_result.hh"
#include "sim/system_config.hh"
#include "workload/access_ring.hh"
#include "workload/generator.hh"

namespace capart
{

class System;

/**
 * Address-space stride between applications (1 TB apart: never alias).
 * Every address an app touches lies in [stride*(id+1), stride*(id+2)),
 * so the owning app of any cache line is recoverable from the line
 * address alone — the basis of per-owner LLC occupancy attribution.
 */
inline constexpr Addr kAppAddressStride = 1ULL << 40;

/**
 * App that owns cache line @p line, or kNoApp for an address outside
 * every app's window (nothing the workload generators emit).
 */
inline AppId
appOfLine(Addr line)
{
    const Addr slot = line / (kAppAddressStride / kLineBytes);
    return slot >= 1 ? static_cast<AppId>(slot - 1) : kNoApp;
}

/**
 * Software hook invoked as perf windows complete — the role the paper's
 * user-level monitoring framework plays (§6.2). Implementations may
 * repartition the LLC through the System reference.
 */
class PartitionController
{
  public:
    virtual ~PartitionController() = default;

    /** A perf window of @p app just closed. */
    virtual void onWindow(System &sys, AppId app, const PerfWindow &w) = 0;
};

/**
 * Interposition point on quantum execution, used by the fault-injection
 * framework (src/fault) to model transient application stalls (page
 * faults, interference from outside the co-schedule, SMM excursions).
 */
class SliceFaultHook
{
  public:
    virtual ~SliceFaultHook() = default;

    /**
     * Cost multiplier (>= 1) for slice @p slice of @p app's next
     * execution quantum; 1 means no fault.
     */
    virtual double quantumStallFactor(AppId app, std::uint64_t slice) = 0;
};

/** The simulated machine. */
class System
{
  public:
    explicit System(const SystemConfig &cfg);

    /**
     * Launch an application pinned to explicit hyperthreads (the
     * taskset analogue). Threads are created one per hyperthread.
     *
     * @param continuous  restart forever (background role, §5).
     * @return the new application's id (also its LLC partition slot).
     */
    AppId addApp(const AppParams &params,
                 const std::vector<HwThreadId> &hts,
                 bool continuous = false);

    /**
     * Launch on @p num_cores whole cores starting at @p first_core,
     * filling both hyperthreads of each core first (§3.1).
     */
    AppId addAppOnCores(const AppParams &params, unsigned first_core,
                        unsigned num_cores, bool continuous = false);

    /**
     * Launch with @p num_threads hyperthreads starting at core
     * @p first_core, filling both hyperthreads of a core first.
     */
    AppId addAppThreads(const AppParams &params, unsigned first_core,
                        unsigned num_threads, bool continuous = false);

    /** Restrict @p app's LLC replacement to @p mask (never flushes). */
    void setWayMask(AppId app, WayMask mask);
    WayMask wayMask(AppId app) const;

    /** Install a (non-owned) partition controller. */
    void setController(PartitionController *ctrl) { controller_ = ctrl; }

    /** Install a (non-owned) quantum-stall fault hook. */
    void setSliceFaultHook(SliceFaultHook *hook) { sliceFaults_ = hook; }

    /** Install a (non-owned) telemetry fault hook on @p app's monitor. */
    void setWindowFaultHook(AppId app, WindowFaultHook *hook);

    /** Run until every non-continuous app completes. */
    RunResult run();

    // ------------- introspection (used by controllers and tests) -----
    Seconds now() const { return now_; }
    unsigned llcWays() const { return cfg_.hierarchy.llc.ways; }
    unsigned numApps() const { return static_cast<unsigned>(apps_.size()); }
    const PerfMonitor &monitor(AppId app) const;
    CacheHierarchy &hierarchy() { return *hierarchy_; }
    DramModel &dram() { return *dram_; }
    const EnergyModel &energy() const { return energy_; }
    const SystemConfig &config() const { return cfg_; }

  private:
    /** One launched application. */
    struct AppState
    {
        AppParams params;
        bool continuous = false;
        std::vector<HwThreadId> hts;
        Insts iterationWork = 0; //!< sum of all thread shares
        Insts retiredThisIteration = 0;
        Insts retiredTotal = 0;
        Cycles cycles = 0;
        std::uint64_t llcAccesses = 0;
        std::uint64_t llcMisses = 0;
        std::uint64_t dramReads = 0;
        std::uint64_t dramWrites = 0;
        std::uint64_t uncachedBytes = 0;
        /**
         * Where the app's cycles went (obs-gated; zero when obs is
         * off). The five buckets partition `cycles` exactly: each
         * quantum's total is split by truncating the running prefix
         * sums of the stall breakdown, so no cycle is counted twice
         * or lost.
         */
        std::uint64_t stallCompute = 0;
        std::uint64_t stallL2 = 0;
        std::uint64_t stallLlc = 0;
        std::uint64_t stallDram = 0;
        std::uint64_t stallQueue = 0;
        bool completed = false;
        Seconds completionTime = 0.0;
        unsigned iterations = 0;
        unsigned threadsDone = 0;
        std::unique_ptr<PerfMonitor> perf;
        std::size_t windowsSeen = 0;
    };

    /** One hardware thread. */
    struct HtState
    {
        AppId app = kNoApp;
        std::unique_ptr<ThreadWorkload> workload;
        Seconds localTime = 0.0;
        bool idle = true;
        std::uint64_t slices = 0; //!< quanta executed (fault-hook index)
    };

    /** Run one quantum on hyperthread @p ht. */
    void stepHt(HwThreadId ht);

    /** Snapshot one per-owner attribution sample (obs-gated). */
    void recordAttributionSample();

    /** Hyperthread with the minimum local time among runnable ones. */
    std::optional<HwThreadId> pickNext() const;

    CoreId coreOf(HwThreadId ht) const { return ht / cfg_.htsPerCore; }
    HwThreadId siblingOf(HwThreadId ht) const;
    bool siblingActive(HwThreadId ht) const;

    /** Deliver newly completed perf windows to the controller. */
    void deliverWindows();

    SystemConfig cfg_;
    std::unique_ptr<CacheHierarchy> hierarchy_;
    std::unique_ptr<DramModel> dram_;
    std::unique_ptr<RingInterconnect> ring_;
    CoreTimingModel timing_;
    EnergyModel energy_;
    HierarchyLatencies latencies_;
    std::vector<PrefetcherBank> prefetchers_; //!< one per core

    std::vector<AppState> apps_;
    std::vector<HtState> hts_;
    PartitionController *controller_ = nullptr;
    SliceFaultHook *sliceFaults_ = nullptr;

    Seconds now_ = 0.0;
    bool ran_ = false;
    std::uint64_t quanta_ = 0; //!< attribution sampling clock

    /** Scratch buffers reused across quanta (no per-quantum allocation).
     *  The access ring carries each quantum's block from the workload
     *  generator to the replay loop (see workload/access_ring.hh). */
    AccessRing accessRing_;
    std::vector<PrefetchRequest> prefetchBuf_;
};

} // namespace capart

#endif // CAPART_SIM_SYSTEM_HH
