/**
 * @file
 * Per-thread synthetic memory reference generation.
 *
 * A @ref ThreadWorkload owns one software thread's share of an
 * application's work and turns instruction quanta into memory accesses
 * according to the active phase's pattern mix. All randomness is
 * deterministic per (app seed, thread index).
 */

#ifndef CAPART_WORKLOAD_GENERATOR_HH
#define CAPART_WORKLOAD_GENERATOR_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "workload/app_params.hh"

namespace capart
{

/** One synthetic memory reference. */
struct MemAccess
{
    std::uint64_t pc = 0; //!< synthetic instruction pointer (per pattern)
    Addr addr = 0;        //!< byte address
    bool write = false;
    bool uncached = false; //!< bypasses the cache hierarchy entirely
};

/**
 * Generates one thread's accesses. Threads of an application share data
 * regions (they index a common address-space base), so intra-application
 * LLC sharing emerges naturally.
 */
class ThreadWorkload
{
  public:
    /**
     * @param params      the application model (validated).
     * @param thread_idx  this thread's index within the app (0-based).
     * @param num_threads threads the app was launched with (pre-cap).
     * @param base        byte address where the app's regions start.
     * @param seed        deterministic seed for this thread.
     */
    ThreadWorkload(const AppParams &params, unsigned thread_idx,
                   unsigned num_threads, Addr base, std::uint64_t seed);

    /** Instructions this thread must retire in one full app run. */
    Insts totalWork() const { return totalWork_; }

    /** Instructions retired so far in the current run. */
    Insts retired() const { return retired_; }

    bool done() const { return retired_ >= totalWork_; }

    /** Restart the run (continuously-running background mode, §5). */
    void restart();

    /**
     * Execute up to @p max_insts instructions of the phase selected by
     * @p app_progress (whole-app completed fraction in [0,1]).
     * Appends this quantum's memory accesses to @p out (not cleared).
     *
     * @return instructions actually retired (0 iff already done).
     */
    Insts runQuantum(Insts max_insts, double app_progress,
                     std::vector<MemAccess> &out);

    /**
     * Batched variant: emit the quantum's accesses as one block into
     * @p ring (claim/commit, no per-access growth checks). Consumes
     * the RNG in exactly the same sequence as the vector overload, so
     * both produce bit-identical access streams.
     */
    Insts runQuantum(Insts max_insts, double app_progress,
                     class AccessRing &ring);

    /** Index of the phase in force at @p app_progress. */
    unsigned phaseIndexAt(double app_progress) const;

    /**
     * Effective MLP of the phase at @p app_progress: pointer-chase
     * accesses serialize, pulling the app's base MLP toward 1.
     */
    double effectiveMlp(double app_progress) const;

    /** This thread's index within its application. */
    unsigned threadIdx() const { return threadIdx_; }

  private:
    /** Mutable per-pattern cursor state. */
    struct PatternState
    {
        Addr regionBase = 0;    //!< absolute byte base of the region
        Addr cursor = 0;        //!< byte offset for walking patterns
        std::uint64_t pc = 0;   //!< synthetic IP of this pattern
        std::uint64_t lines = 0; //!< region size in lines
    };

    /** Pick a pattern index within @p phase by weight. */
    unsigned pickPattern(unsigned phase_idx);

    /** Produce one access from pattern @p p of phase @p phase_idx. */
    MemAccess genAccess(unsigned phase_idx, unsigned pattern_idx);

    /** Owned copy: the caller's AppParams may move after construction. */
    AppParams params_;
    unsigned threadIdx_;
    Insts totalWork_ = 0;
    Insts retired_ = 0;
    double memCarry_ = 0.0; //!< fractional accesses carried across quanta

    Rng rng_;
    /** state_[phase][pattern]. */
    std::vector<std::vector<PatternState>> state_;
    /** Cumulative pattern weights per phase, for O(#patterns) sampling. */
    std::vector<std::vector<double>> weightCdf_;
    /** Cached effective MLP per phase. */
    std::vector<double> phaseMlp_;
    /** Cumulative phase instruction fractions (phase boundary lookup). */
    std::vector<double> phaseCdf_;
};

/**
 * Compute the number of threads an app actually uses and each thread's
 * instruction budget under the Amdahl + synchronization model:
 * thread 0 additionally executes the serial fraction.
 */
Insts threadWorkShare(const AppParams &params, unsigned thread_idx,
                      unsigned num_threads);

} // namespace capart

#endif // CAPART_WORKLOAD_GENERATOR_HH
