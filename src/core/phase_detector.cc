#include "core/phase_detector.hh"

#include <cmath>

#include "obs/metrics.hh"

namespace capart
{

double
PhaseDetector::relativeDelta(double current) const
{
    const double denom =
        avg_ > kMinMpkiDenominator ? avg_ : kMinMpkiDenominator;
    return std::abs(avg_ - current) / denom;
}

PhaseEvent
PhaseDetector::step(double current_mpki)
{
    if (obs::enabled()) {
        // Cached references: the registry lookup runs once, increments
        // are single relaxed atomic adds (see obs/metrics.hh).
        static obs::Counter &samples =
            obs::metrics().counter("phase_detector.samples");
        samples.inc();
    }
    if (!haveAvg_) {
        // First sample bootstraps the phase average.
        haveAvg_ = true;
        avg_ = current_mpki;
        samplesInPhase_ = 1;
        return PhaseEvent::Stable;
    }

    if (!newPhase_) {
        if (relativeDelta(current_mpki) > cfg_.thr1) {
            newPhase_ = true;
            ++changes_;
            if (obs::enabled()) {
                static obs::Counter &phases =
                    obs::metrics().counter("phase_detector.changes");
                phases.inc();
            }
            // The new phase's average restarts from the new level.
            avg_ = current_mpki;
            samplesInPhase_ = 1;
            return PhaseEvent::NewPhase;
        }
        // Stable: fold the sample into the phase average.
        ++samplesInPhase_;
        avg_ += (current_mpki - avg_) /
                static_cast<double>(samplesInPhase_);
        return PhaseEvent::Stable;
    }

    // In transition: wait for the MPKI to settle around the new level.
    if (relativeDelta(current_mpki) < cfg_.thr2) {
        newPhase_ = false;
        ++samplesInPhase_;
        avg_ += (current_mpki - avg_) /
                static_cast<double>(samplesInPhase_);
        return PhaseEvent::Stable;
    }
    // Still moving: track the level so a drawn-out ramp converges.
    avg_ = current_mpki;
    samplesInPhase_ = 1;
    return PhaseEvent::InTransition;
}

void
PhaseDetector::reset()
{
    newPhase_ = false;
    haveAvg_ = false;
    avg_ = 0.0;
    samplesInPhase_ = 0;
    changes_ = 0;
}

} // namespace capart
