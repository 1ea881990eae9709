#include "core/slo_monitor.hh"

#include <cmath>

#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace capart
{

void
SloMonitor::setBaseline(double baseline_ips)
{
    baselineIps_ = baseline_ips;
}

double
SloMonitor::windowMean(const std::deque<double> &win) const
{
    double sum = 0.0;
    for (const double v : win)
        sum += v;
    return sum / static_cast<double>(win.size());
}

SloTransition
SloMonitor::onWindow(Seconds now, const PerfWindow &w)
{
    const Seconds span = w.end - w.start;
    if (baselineIps_ <= 0.0 || span <= 0.0 || w.insts == 0 ||
        !std::isfinite(span))
        return SloTransition::None; // unusable window; not evaluated

    const double ips = static_cast<double>(w.insts) / span;
    const double slowdown = baselineIps_ / ips;
    if (!std::isfinite(slowdown) || slowdown <= 0.0)
        return SloTransition::None;

    lastSlowdown_ = slowdown;
    ++windows_;

    shortWin_.push_back(slowdown);
    if (shortWin_.size() > kShortWindows)
        shortWin_.pop_front();
    longWin_.push_back(slowdown);
    if (longWin_.size() > kLongWindows)
        longWin_.pop_front();

    const double budget = kObjective - 1.0;
    shortBurn_ = (windowMean(shortWin_) - 1.0) / budget;
    longBurn_ = (windowMean(longWin_) - 1.0) / budget;

    // "Burning" needs the window itself to violate the objective, not
    // just the sliding means: one extreme spike inflates both means for
    // kShortWindows evaluations, and counting its echo as consecutive
    // burn would turn a single bad window into a breach. Requiring the
    // violation to be live in every confirming window is what makes the
    // confirmation count mean "sustained".
    const bool burning = slowdown > kObjective &&
                         shortBurn_ >= kBurnThreshold &&
                         longBurn_ >= kBurnThreshold;
    if (burning) {
        ++burnStreak_;
        calmStreak_ = 0;
    } else {
        burnStreak_ = 0;
        ++calmStreak_;
    }

    SloTransition transition = SloTransition::None;
    if (!inBreach_ && burnStreak_ >= kConfirmWindows) {
        inBreach_ = true;
        ++breaches_;
        transition = SloTransition::Breach;
    } else if (inBreach_ && calmStreak_ >= kRecoveryWindows) {
        inBreach_ = false;
        transition = SloTransition::Recovered;
    }
    if (inBreach_)
        ++breachWindows_;

    if (obs::enabled()) {
        static obs::Counter &windows =
            obs::metrics().counter("slo.windows");
        windows.inc();
        if (transition == SloTransition::Breach)
            obs::metrics().counter("slo.breaches").inc();
        if (inBreach_)
            obs::metrics().counter("slo.breach_windows").inc();
        // One journal record per evaluation, holding the state the
        // evaluation left: the dashboard's burn-rate strip is drawn
        // straight from these, and they are the one record of each
        // breach and recovery.
        obs::JournalEntry e;
        e.tUs = now * 1e6;
        e.kind = "slo";
        e.rule = inBreach_ ? "breach" : (burning ? "burning" : "healthy");
        e.fields.emplace_back("slowdown", slowdown);
        e.fields.emplace_back("burn_short", shortBurn_);
        e.fields.emplace_back("burn_long", longBurn_);
        e.fields.emplace_back("in_breach", inBreach_ ? 1.0 : 0.0);
        obs::timeseries().journal(std::move(e));
    }
    return transition;
}

} // namespace capart
