/**
 * @file
 * Structured, replayable records of dynamic-partitioner decisions.
 *
 * Every control decision of Algorithm 6.2 is reduced to a pure
 * function: @ref decidePartition maps a complete snapshot of the
 * inputs the controller saw (@ref DecisionInputs) to the action it
 * must take (@ref Decision). DynamicPartitioner::onWindow *calls*
 * this function — the journal is not a log of what the code happened
 * to do, it is the decision procedure itself, so a recorded decision
 * can be replayed deterministically:
 *
 *     decidePartition(inputsFromRecord(rec)) == outputsFromRecord(rec)
 *
 * holds for every journaled window (tests/test_attribution.cc asserts
 * it end to end on a fig13 run). Records are emitted as flat
 * name->number @ref obs::JournalEntry fields; a sweep point's journal
 * is written once, to its attribution side file, and survives that
 * JSON round trip.
 */

#ifndef CAPART_CORE_DECISION_JOURNAL_HH
#define CAPART_CORE_DECISION_JOURNAL_HH

#include <string>

#include "core/phase_detector.hh"
#include "obs/timeseries.hh"

namespace capart
{

/**
 * Smallest foreground allocation the shrink probe reaches (2 ways =
 * 1 MB on the paper's 12 x 0.5 MB LLC).
 */
inline constexpr unsigned kMinFgWays = 2;

/** Which rule of the control algorithm fired for a window. */
enum class DecisionRule
{
    Hold,          //!< in transition, or stable and not probing
    PhaseStartMax, //!< new phase: give the FG everything (§6.3)
    ProbeShrink,   //!< no MPKI reaction: release one more way
    SettleBack,    //!< MPKI reacted: give the way back and settle
    SettleFloor,   //!< probe hit kMinFgWays without a reaction
    Retry,         //!< a failed remask is in flight; no new decision
    RejectHold,    //!< telemetry rejected; allocation held
    FallbackHold,  //!< watchdog fallback active; fair split held
    FallbackEnter, //!< watchdog tripped into the fair split
    ResumeProbe    //!< dynamic control resumed; re-probe from the top
};

/** Stable wire name of @p rule (the journal encoding). */
const char *decisionRuleName(DecisionRule rule);

/** Inverse of decisionRuleName; false on an unknown name. */
bool decisionRuleFromName(const std::string &name, DecisionRule *out);

/**
 * Everything Algorithm 6.2's decision step reads. A journal record
 * stores exactly these fields, making the decision reproducible.
 */
struct DecisionInputs
{
    /** The window's raw MPKI (the shrink probe compares raw windows). */
    double rawMpki = 0.0;
    /** EWMA-smoothed MPKI (what the phase detector consumed). */
    double smoothedMpki = 0.0;
    /** Previous valid window's raw MPKI. */
    double lastMpki = 0.0;
    bool haveLast = false;
    /** Phase detector verdict for this window. */
    PhaseEvent phase = PhaseEvent::Stable;
    /** The controller is probing downward (a phase start is active). */
    bool probing = false;
    /** A failed remask awaits retry (suspends new decisions). */
    bool retryPending = false;
    unsigned retryWays = 0;
    /** Foreground ways currently installed. */
    unsigned fgWays = 0;
    /** MPKI_THR3 (the one setting the decision reads). */
    double thr3 = 0.0;
    /** The probe ceiling: the machine's LLC ways minus one. */
    unsigned maxFgWays = 0;
};

/** What the controller must do for a window. */
struct Decision
{
    DecisionRule rule = DecisionRule::Hold;
    /** Foreground ways to install (== fgWays for hold-style rules). */
    unsigned targetFgWays = 0;
    /** Probing state after the action. */
    bool probingAfter = false;
    /** Relative MPKI change the probe computed (0 unless probing). */
    double delta = 0.0;
};

/**
 * The decision step of Algorithm 6.2 as a pure function of its
 * inputs; see the file comment for the replay contract.
 */
Decision decidePartition(const DecisionInputs &in);

/**
 * Encode one journaled decision: @p in and @p out flattened to
 * fields, plus the chosen/candidate way masks and whether the remask
 * landed. @p total_ways sizes the complement (background) masks.
 */
obs::JournalEntry makeDecisionEntry(double t_us, const DecisionInputs &in,
                                    const Decision &out, unsigned total_ways,
                                    bool applied, unsigned installed_ways);

/** Rebuild the decision inputs from a journal record's fields. */
DecisionInputs decisionInputsFromEntry(const obs::JournalEntry &entry);

/** Rebuild the recorded decision outputs from a journal record. */
Decision decisionFromEntry(const obs::JournalEntry &entry);

} // namespace capart

#endif // CAPART_CORE_DECISION_JOURNAL_HH
