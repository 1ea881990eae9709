/**
 * @file
 * Structured, replayable records of N-app Partitioner decisions.
 *
 * The PR 5 decision journal (core/decision_journal) made Algorithm 6.2
 * replayable; this module extends the same contract to every N-app
 * @ref Partitioner. Each decide() call is reduced to a pure function:
 * @ref decideNPartition maps a complete snapshot of the inputs the
 * policy saw (@ref NPartitionInputs — the per-app observations with
 * their miss curves, plus the policy's own carried state, namely
 * LFOC's fractional-way bounce accumulators) to the masks it must
 * install (@ref NPartitionDecision). The replay invariant
 *
 *     decideNPartition(inputsFromRecord(rec)).masks == recordedMasks
 *
 * holds for every journaled decision of every policy — shared, fair,
 * biased, dynamic (the initial static split; per-window dynamic
 * control stays on the Algorithm 6.2 journal), UCP, and LFOC — after
 * a full JSON round trip through the point's attribution side file,
 * the journal's only copy (tests/test_napp_obs.cc asserts it end to
 * end).
 *
 * Records flatten to name->number @ref obs::JournalEntry fields with
 * kind "npartition_decision" and rule = npolicyName(policy):
 * per-app inputs as app<i>.mpki / app<i>.curve<w> / app<i>.err_before,
 * per-app outputs as app<i>.mask / app<i>.ways / app<i>.class /
 * app<i>.target / app<i>.err_after, and — for UCP — the first
 * lookahead iteration's marginal-utility table as mu<i>.<k>
 * (diagnostic: the gain-per-way rates the allocator weighed from its
 * all-apps-at-one-way starting state).
 */

#ifndef CAPART_CORE_NPARTITION_JOURNAL_HH
#define CAPART_CORE_NPARTITION_JOURNAL_HH

#include <cstdint>
#include <vector>

#include "core/lfoc.hh"
#include "core/partitioner.hh"
#include "obs/timeseries.hh"

namespace capart
{

/**
 * Everything an N-app decide() reads: the observation vector, the
 * machine width, the biased or dynamic starting split where the
 * policy has one, and any state the policy carries across windows. A
 * journal record stores exactly these fields, making the decision
 * reproducible on a fresh policy object.
 */
struct NPartitionInputs
{
    NPolicy policy = NPolicy::Shared;
    unsigned totalWays = 0;
    /** Per-app observations, including miss curves when profiled. */
    std::vector<AppObservation> apps;
    /**
     * LFOC's fractional-way bounce accumulators *before* this decide
     * (empty on the first decision). Restoring these onto a fresh
     * partitioner is what makes the stateful policy replayable.
     */
    std::vector<double> lfocErrBefore;
    /** Foreground ways (resolved, non-zero) when policy == Biased. */
    unsigned biasedFgWays = 0;
    /** Initial foreground split when policy == Dynamic. */
    unsigned dynMaxFgWays = 0;
};

/** What the policy decided: one mask per app plus LFOC introspection. */
struct NPartitionDecision
{
    std::vector<WayMask> masks;
    /** LFOC only: class per app (empty for other policies). */
    std::vector<AppClass> classes;
    /** LFOC only: fractional way target per app. */
    std::vector<double> targets;
    /** LFOC only: bounce accumulators after the decision. */
    std::vector<double> errAfter;
};

/**
 * Replay @p in through a freshly constructed policy object (LFOC
 * state restored from lfocErrBefore); see the file comment for the
 * replay contract.
 */
NPartitionDecision decideNPartition(const NPartitionInputs &in);

/**
 * Encode one journaled N-app decision: @p in and @p out flattened to
 * fields, plus @p seq (decision ordinal within the run; 0 is the
 * up-front decision, >0 are online re-decisions) and whether the
 * masks were actually installed.
 */
obs::JournalEntry makeNPartitionEntry(double t_us,
                                      const NPartitionInputs &in,
                                      const NPartitionDecision &out,
                                      std::uint64_t seq, bool applied);

/** Rebuild the decision inputs from a journal record's fields. */
NPartitionInputs npartitionInputsFromEntry(const obs::JournalEntry &entry);

/** Rebuild the recorded decision outputs from a journal record. */
NPartitionDecision npartitionDecisionFromEntry(
    const obs::JournalEntry &entry);

/**
 * Journal one decision into the current thread's attribution scope
 * (and bump the partitioner.napp_decisions_journaled counter). A
 * no-op unless obs::enabled(); never touches simulation state, so
 * results stay bit-identical with journaling on.
 */
void journalNPartitionDecision(double t_us, const NPartitionInputs &in,
                               const NPartitionDecision &out,
                               std::uint64_t seq, bool applied);

} // namespace capart

#endif // CAPART_CORE_NPARTITION_JOURNAL_HH
