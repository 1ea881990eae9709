#include "core/decision_journal.hh"

#include <algorithm>
#include <cmath>

#include "sim/experiment.hh"

namespace capart
{

const char *
decisionRuleName(DecisionRule rule)
{
    switch (rule) {
      case DecisionRule::Hold:
        return "hold";
      case DecisionRule::PhaseStartMax:
        return "phase_start_max";
      case DecisionRule::ProbeShrink:
        return "probe_shrink";
      case DecisionRule::SettleBack:
        return "settle_back";
      case DecisionRule::SettleFloor:
        return "settle_floor";
      case DecisionRule::Retry:
        return "retry";
      case DecisionRule::RejectHold:
        return "reject_hold";
      case DecisionRule::FallbackHold:
        return "fallback_hold";
      case DecisionRule::FallbackEnter:
        return "fallback_enter";
      case DecisionRule::ResumeProbe:
        return "resume_probe";
    }
    return "hold";
}

bool
decisionRuleFromName(const std::string &name, DecisionRule *out)
{
    static constexpr DecisionRule kAll[] = {
        DecisionRule::Hold,          DecisionRule::PhaseStartMax,
        DecisionRule::ProbeShrink,   DecisionRule::SettleBack,
        DecisionRule::SettleFloor,   DecisionRule::Retry,
        DecisionRule::RejectHold,    DecisionRule::FallbackHold,
        DecisionRule::FallbackEnter, DecisionRule::ResumeProbe,
    };
    for (const DecisionRule r : kAll) {
        if (name == decisionRuleName(r)) {
            *out = r;
            return true;
        }
    }
    return false;
}

Decision
decidePartition(const DecisionInputs &in)
{
    Decision d;
    d.rule = DecisionRule::Hold;
    d.targetFgWays = in.fgWays;
    d.probingAfter = in.probing;

    if (in.retryPending) {
        // A mask application is in flight: retry it on schedule and do
        // not take new decisions on state that never landed.
        d.rule = DecisionRule::Retry;
        d.targetFgWays = in.retryWays;
        return d;
    }
    if (in.phase == PhaseEvent::NewPhase) {
        // A new phase begins: give the foreground everything we can,
        // then probe downward from there (Algorithm 6.2).
        d.rule = DecisionRule::PhaseStartMax;
        d.targetFgWays = in.maxFgWays;
        d.probingAfter = true;
        return d;
    }
    if (in.phase == PhaseEvent::Stable && in.probing) {
        // The shrink probe compares *raw* successive windows: the
        // reaction to a one-way shrink must not be averaged away.
        const double denom =
            std::max(std::abs(in.lastMpki), kMinMpkiDenominator);
        d.delta =
            in.haveLast ? std::abs(in.lastMpki - in.rawMpki) / denom : 0.0;
        if (d.delta < in.thr3) {
            if (in.fgWays > kMinFgWays) {
                d.rule = DecisionRule::ProbeShrink;
                d.targetFgWays = in.fgWays - 1;
                d.probingAfter = true;
            } else {
                d.rule = DecisionRule::SettleFloor;
                d.probingAfter = false;
            }
        } else {
            d.rule = DecisionRule::SettleBack;
            d.targetFgWays = std::min(in.fgWays + 1, in.maxFgWays);
            d.probingAfter = false;
        }
        return d;
    }
    return d;
}

obs::JournalEntry
makeDecisionEntry(double t_us, const DecisionInputs &in, const Decision &out,
                  unsigned total_ways, bool applied,
                  unsigned installed_ways)
{
    obs::JournalEntry e;
    e.tUs = t_us;
    e.kind = "decision";
    e.rule = decisionRuleName(out.rule);
    auto f = [&](const char *name, double v) {
        e.fields.emplace_back(name, v);
    };
    // Inputs (the complete DecisionInputs snapshot).
    f("raw_mpki", in.rawMpki);
    f("smoothed_mpki", in.smoothedMpki);
    f("last_mpki", in.lastMpki);
    f("have_last", in.haveLast ? 1.0 : 0.0);
    f("phase", static_cast<double>(static_cast<int>(in.phase)));
    f("probing", in.probing ? 1.0 : 0.0);
    f("retry_pending", in.retryPending ? 1.0 : 0.0);
    f("retry_ways", in.retryWays);
    f("fg_ways", in.fgWays);
    f("thr3", in.thr3);
    f("max_fg_ways", in.maxFgWays);
    // The candidate allocations Algorithm 6.2 ever weighs from this
    // state (hold / one-way shrink / one-way grow / full re-probe),
    // each as the foreground way mask it would install.
    const unsigned shrink = std::max(in.fgWays > 0 ? in.fgWays - 1 : 0u,
                                     kMinFgWays);
    const unsigned grow = std::min(in.fgWays + 1, in.maxFgWays);
    f("cand_hold_mask", splitWays(in.fgWays, total_ways).fg.bits());
    f("cand_shrink_mask", splitWays(shrink, total_ways).fg.bits());
    f("cand_grow_mask", splitWays(grow, total_ways).fg.bits());
    f("cand_max_mask", splitWays(in.maxFgWays, total_ways).fg.bits());
    // Outputs.
    f("target_fg_ways", out.targetFgWays);
    f("probing_after", out.probingAfter ? 1.0 : 0.0);
    f("delta", out.delta);
    const SplitMasks chosen = splitWays(out.targetFgWays, total_ways);
    f("chosen_fg_mask", chosen.fg.bits());
    f("chosen_bg_mask", chosen.bg.bits());
    f("applied", applied ? 1.0 : 0.0);
    f("installed_fg_ways", installed_ways);
    f("total_ways", total_ways);
    return e;
}

DecisionInputs
decisionInputsFromEntry(const obs::JournalEntry &entry)
{
    DecisionInputs in;
    in.rawMpki = entry.field("raw_mpki");
    in.smoothedMpki = entry.field("smoothed_mpki");
    in.lastMpki = entry.field("last_mpki");
    in.haveLast = entry.field("have_last") != 0.0;
    in.phase =
        static_cast<PhaseEvent>(static_cast<int>(entry.field("phase")));
    in.probing = entry.field("probing") != 0.0;
    in.retryPending = entry.field("retry_pending") != 0.0;
    in.retryWays = static_cast<unsigned>(entry.field("retry_ways"));
    in.fgWays = static_cast<unsigned>(entry.field("fg_ways"));
    in.thr3 = entry.field("thr3");
    in.maxFgWays = static_cast<unsigned>(entry.field("max_fg_ways"));
    return in;
}

Decision
decisionFromEntry(const obs::JournalEntry &entry)
{
    Decision d;
    if (!decisionRuleFromName(entry.rule, &d.rule))
        d.rule = DecisionRule::Hold;
    d.targetFgWays =
        static_cast<unsigned>(entry.field("target_fg_ways"));
    d.probingAfter = entry.field("probing_after") != 0.0;
    d.delta = entry.field("delta");
    return d;
}

} // namespace capart
