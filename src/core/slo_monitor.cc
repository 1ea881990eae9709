#include "core/slo_monitor.hh"

#include <cmath>

#include "common/logging.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"

namespace capart
{

void
SloMonitorConfig::validate() const
{
    if (slo <= 1.0) {
        capart_panic("SloMonitorConfig: slo must exceed 1 (got "
                     << slo << "); an SLO of 1.0 leaves no error budget");
    }
    if (shortWindows < 1 || longWindows < 1) {
        capart_panic("SloMonitorConfig: window sizes must be >= 1 (got "
                     << shortWindows << "/" << longWindows << ")");
    }
    if (shortWindows > longWindows) {
        capart_panic("SloMonitorConfig: shortWindows ("
                     << shortWindows << ") must not exceed longWindows ("
                     << longWindows << ")");
    }
    if (burnThreshold <= 0.0) {
        capart_panic("SloMonitorConfig: burnThreshold must be positive"
                     " (got " << burnThreshold << ")");
    }
    if (confirmWindows < 1 || recoveryWindows < 1) {
        capart_panic("SloMonitorConfig: confirmWindows and "
                     "recoveryWindows must be >= 1");
    }
}

SloMonitor::SloMonitor(const SloMonitorConfig &cfg) : cfg_(cfg)
{
    cfg_.validate();
}

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
    if (shortWin_.size() > cfg_.shortWindows)
        shortWin_.pop_front();
    longWin_.push_back(slowdown);
    if (longWin_.size() > cfg_.longWindows)
        longWin_.pop_front();

    const double budget = cfg_.slo - 1.0;
    shortBurn_ = (windowMean(shortWin_) - 1.0) / budget;
    longBurn_ = (windowMean(longWin_) - 1.0) / budget;

    // "Burning" needs the window itself to violate the objective, not
    // just the sliding means: one extreme spike inflates both means for
    // shortWindows evaluations, and counting its echo as consecutive
    // burn would turn a single bad window into a breach. Requiring the
    // violation to be live in every confirming window is what makes the
    // confirmation count mean "sustained".
    const bool burning = slowdown > cfg_.slo &&
                         shortBurn_ >= cfg_.burnThreshold &&
                         longBurn_ >= cfg_.burnThreshold;
    if (burning) {
        ++burnStreak_;
        calmStreak_ = 0;
    } else {
        burnStreak_ = 0;
        ++calmStreak_;
    }

    SloTransition transition = SloTransition::None;
    if (!inBreach_ && burnStreak_ >= cfg_.confirmWindows) {
        inBreach_ = true;
        ++breaches_;
        transition = SloTransition::Breach;
    } else if (inBreach_ && calmStreak_ >= cfg_.recoveryWindows) {
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
        e.fields.emplace_back("slo", cfg_.slo);
        e.fields.emplace_back("in_breach", inBreach_ ? 1.0 : 0.0);
        obs::timeseries().journal(std::move(e));
    }
    return transition;
}

} // namespace capart
