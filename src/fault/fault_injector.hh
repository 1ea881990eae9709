/**
 * @file
 * Deterministic fault injection for the partitioning control plane.
 *
 * The paper's prototype enjoys perfect telemetry and an infallible
 * remasking path; production deployments of the same policy (Intel CAT
 * via resctrl, perf_events sampling) do not. This subsystem injects the
 * faults such deployments actually see — corrupted or stale counter
 * reads, dropped sampling windows, failed or delayed schemata writes,
 * transient application stalls — at the seams the rest of the library
 * exposes (@ref WindowFaultHook, @ref SliceFaultHook,
 * @ref RctlFaultHook, @ref Remasker), so the hardened controller can be
 * *proved* to degrade gracefully under a chaos bench.
 *
 * Every decision is a pure hash of (seed, fault kind, stream, index):
 * the same plan and seed produce bit-identical fault sequences
 * regardless of call interleaving, preserving the repository's
 * reproducibility guarantee.
 */

#ifndef CAPART_FAULT_FAULT_INJECTOR_HH
#define CAPART_FAULT_FAULT_INJECTOR_HH

#include <cstdint>
#include <map>
#include <string>

#include "core/remasker.hh"
#include "perf/perf_counters.hh"
#include "rctl/resctrl.hh"
#include "sim/system.hh"

namespace capart
{

/**
 * One fault scenario: per-event probabilities and shapes. All rates are
 * probabilities in [0, 1] evaluated independently per opportunity.
 */
struct FaultPlan
{
    // ---- telemetry faults (per closed perf window of the target) ----
    /** Window never delivered (missed sampling deadline). */
    double windowDropRate = 0.0;
    /** Counter read corrupted into an MPKI spike. */
    double counterCorruptRate = 0.0;
    /** Multiplier a corrupted window's MPKI/misses are scaled by. */
    double spikeMultiplier = 10.0;
    /** Counter read corrupted into NaN (wrapped/garbage register). */
    double nanRate = 0.0;
    /** Stale read: the previous window's counters are served again. */
    double staleRate = 0.0;
    /**
     * Hard telemetry blackout: every window of the target stream with
     * index in [blackoutStart, blackoutStart + blackoutLen) is dropped.
     * blackoutLen = 0 disables; use a huge length for "forever".
     */
    std::uint64_t blackoutStart = 0;
    std::uint64_t blackoutLen = 0;
    /** App whose telemetry the faults above target (others untouched). */
    AppId telemetryTarget = 0;

    // ---- control-plane faults ---------------------------------------
    /** Remask / schemata write fails transiently (EIO-style). */
    double remaskFailRate = 0.0;
    /** Remask reported applied but lands late (propagation delay). */
    double remaskDelayRate = 0.0;
    /** Windows a delayed remask takes to land. */
    unsigned remaskDelayWindows = 2;

    // ---- execution faults -------------------------------------------
    /** Per-quantum probability of a transient stall (any app). */
    double stallRate = 0.0;
    /** Cost multiplier of a stalled quantum. */
    double stallFactor = 6.0;

    // ---- canned plans used by benches and tests ---------------------
    /** No faults at all (the baseline row of the chaos bench). */
    static FaultPlan none() { return FaultPlan{}; }

    /** Corrupt/drop/stale each at @p rate on the target's telemetry. */
    static FaultPlan
    noisyTelemetry(double rate)
    {
        FaultPlan p;
        p.windowDropRate = rate;
        p.counterCorruptRate = rate;
        p.nanRate = rate / 2;
        p.staleRate = rate;
        return p;
    }

    /** The target's telemetry dies for good at @p start_window. */
    static FaultPlan
    telemetryBlackout(std::uint64_t start_window)
    {
        FaultPlan p;
        p.blackoutStart = start_window;
        p.blackoutLen = ~0ULL - start_window;
        return p;
    }
};

/** Tally of every fault actually injected. */
struct FaultStats
{
    std::uint64_t windowsDropped = 0;
    std::uint64_t windowsCorrupted = 0;
    std::uint64_t windowsNaN = 0;
    std::uint64_t windowsStale = 0;
    std::uint64_t remaskFails = 0;
    std::uint64_t remaskDelays = 0;
    std::uint64_t schemataFails = 0;
    std::uint64_t applyFails = 0;
    std::uint64_t stalls = 0;
};

/**
 * The seeded injector. One instance drives every seam at once; attach
 * it to a @ref System (telemetry + stalls), a @ref ResctrlFs
 * (schemata/apply faults), and/or wrap a @ref Remasker in a
 * @ref FaultyRemasker.
 */
class FaultInjector final : public WindowFaultHook,
                            public SliceFaultHook,
                            public RctlFaultHook
{
  public:
    FaultInjector(const FaultPlan &plan, std::uint64_t seed);

    /** Install telemetry hooks on every app and the stall hook. */
    void attach(System &sys);

    const FaultPlan &plan() const { return plan_; }
    const FaultStats &stats() const { return stats_; }

    // ---- WindowFaultHook --------------------------------------------
    bool onWindowClose(std::uint64_t stream, std::uint64_t index,
                       PerfWindow &w) override;

    // ---- SliceFaultHook ---------------------------------------------
    double quantumStallFactor(AppId app, std::uint64_t slice) override;

    // ---- RctlFaultHook ----------------------------------------------
    RctlStatus onSchemataWrite(const std::string &group) override;
    bool onApplyMask(const std::string &group, AppId app) override;

    // ---- Remasker-facing decisions (used by FaultyRemasker) ---------
    /** Should the next remask operation fail outright? */
    bool remaskShouldFail();
    /** Should the next remask operation land late instead of now? */
    bool remaskShouldDelay();

  private:
    /** Stateless uniform [0,1) from (seed, kind, a, b). */
    double unit(std::uint64_t kind, std::uint64_t a, std::uint64_t b) const;

    FaultPlan plan_;
    std::uint64_t seed_;
    FaultStats stats_;
    std::uint64_t remaskCalls_ = 0;
    std::uint64_t schemataCalls_ = 0;
    std::uint64_t applyCalls_ = 0;
    std::map<std::uint64_t, PerfWindow> lastDelivered_;
};

/**
 * A @ref Remasker whose writes fail or land late per an injector's
 * plan — the fallible control plane the hardened partitioner retries
 * against. Wraps the infallible direct path.
 */
class FaultyRemasker final : public Remasker
{
  public:
    explicit FaultyRemasker(FaultInjector &inj) : inj_(&inj) {}

    bool apply(System &sys, AppId fg, const std::vector<AppId> &bgs,
               const SplitMasks &masks) override;
    void tick(System &sys) override;

    /** A delayed application is still waiting to land. */
    bool pendingDelayed() const { return pending_; }

  private:
    FaultInjector *inj_;
    DirectRemasker direct_;
    bool pending_ = false;
    unsigned wait_ = 0;
    AppId pendingFg_ = 0;
    std::vector<AppId> pendingBgs_;
    SplitMasks pendingMasks_;
};

} // namespace capart

#endif // CAPART_FAULT_FAULT_INJECTOR_HH
