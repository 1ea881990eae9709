#include "core/dynamic_partitioner.hh"

#include <cmath>

#include "common/logging.hh"
#include "core/decision_journal.hh"
#include "obs/metrics.hh"
#include "obs/timeseries.hh"
#include "sim/experiment.hh"

namespace capart
{

namespace
{

/** Absolute MPKI floor under the spike test (ignore tiny levels). */
constexpr double kSpikeFloor = 2.5;
/** Retries per remask decision before it is abandoned. */
constexpr unsigned kMaxRemaskRetries = 3;
/** Windows before the first retry; doubles on each further retry. */
constexpr unsigned kRetryBackoffWindows = 1;

} // namespace

void
DynamicPartitionerConfig::validate() const
{
    if (thr3 <= 0.0) {
        capart_panic("DynamicPartitionerConfig: thr3 must be positive"
                     " (got " << thr3 << ")");
    }
    if (detector.thr1 <= 0.0 || detector.thr2 <= 0.0) {
        capart_panic("DynamicPartitionerConfig: detector thresholds "
                     "thr1/thr2 must be positive (got "
                     << detector.thr1 << "/" << detector.thr2 << ")");
    }
}

DynamicPartitioner::DynamicPartitioner(AppId fg, std::vector<AppId> bgs,
                                       const DynamicPartitionerConfig &cfg,
                                       Remasker *remasker)
    : fg_(fg), bgs_(std::move(bgs)), cfg_(cfg), detector_(cfg.detector),
      remasker_(remasker ? remasker : &direct_)
{
    cfg_.validate();
}

bool
DynamicPartitioner::apply(System &sys, unsigned fg_ways)
{
    capart_assert(fg_ways >= kMinFgWays && fg_ways <= maxFgWays_);
    const unsigned total = sys.llcWays();
    capart_assert(fg_ways < total);
    const SplitMasks masks = splitWays(fg_ways, total);
    ++remaskAttempts_;
    if (obs::enabled())
        obs::metrics().counter("partitioner.remask_attempts").inc();
    if (!remasker_->apply(sys, fg_, bgs_, masks)) {
        ++remaskFailures_;
        if (obs::enabled())
            obs::metrics().counter("partitioner.remask_failures").inc();
        return false;
    }
    if (fg_ways != fgWays_ || !installed_)
        ++reallocations_;
    fgWays_ = fg_ways;
    installed_ = true;
    return true;
}

void
DynamicPartitioner::pushHealth(System &sys, HealthEventKind kind,
                               unsigned count)
{
    health_.push_back(HealthEvent{sys.now(), kind, fgWays_, count});
    const bool degradation = kind == HealthEventKind::FallbackEntered ||
                             kind == HealthEventKind::RemaskFailed;
    logEvent(degradation ? LogLevel::Warn : LogLevel::Info,
             "partitioner.health",
             {{"t_s", sys.now()},
              {"kind", healthEventName(kind)},
              {"fg_ways", fgWays_},
              {"count", count}});
}

void
DynamicPartitioner::requestWays(System &sys, unsigned fg_ways)
{
    if (apply(sys, fg_ways)) {
        if (consecRemaskFails_ > 0) {
            pushHealth(sys, HealthEventKind::RemaskRecovered,
                       consecRemaskFails_);
        }
        consecRemaskFails_ = 0;
        remaskProbation_ = false;
        retryPending_ = false;
        retryCount_ = 0;
        return;
    }
    ++consecRemaskFails_;
    pushHealth(sys, HealthEventKind::RemaskFailed, consecRemaskFails_);
    if (remaskProbation_ || consecRemaskFails_ >= kWatchdogThreshold) {
        enterFallback(sys, consecRemaskFails_, true);
        return;
    }
    retryPending_ = true;
    retryWays_ = fg_ways;
    retryCount_ = 1;
    retryWait_ = kRetryBackoffWindows;
}

void
DynamicPartitioner::serviceRetry(System &sys)
{
    if (retryWait_ > 0) {
        --retryWait_;
        return;
    }
    if (apply(sys, retryWays_)) {
        pushHealth(sys, HealthEventKind::RemaskRecovered,
                   consecRemaskFails_);
        consecRemaskFails_ = 0;
        remaskProbation_ = false;
        retryPending_ = false;
        retryCount_ = 0;
        return;
    }
    ++consecRemaskFails_;
    pushHealth(sys, HealthEventKind::RemaskFailed, consecRemaskFails_);
    if (consecRemaskFails_ >= kWatchdogThreshold) {
        enterFallback(sys, consecRemaskFails_, true);
        return;
    }
    ++retryCount_;
    if (retryCount_ > kMaxRemaskRetries) {
        // Bounded retry exhausted: abandon this target and let the
        // algorithm continue from the allocation actually installed.
        retryPending_ = false;
        retryCount_ = 0;
        return;
    }
    // Exponential backoff: wait 1, 2, 4, ... windows between retries.
    retryWait_ = kRetryBackoffWindows << (retryCount_ - 1);
}

void
DynamicPartitioner::enterFallback(System &sys, unsigned count,
                                  bool remask_cause)
{
    if (mode_ == ControlMode::Fallback)
        return;
    mode_ = ControlMode::Fallback;
    remaskCausedFallback_ = remask_cause;
    const unsigned total = sys.llcWays();
    const unsigned fair = total / 2;
    // Last-resort safe path: bypass the (possibly failing) remasker and
    // write the masks directly — the panic-MSR-write of this machine.
    direct_.apply(sys, fg_, bgs_, splitWays(fair, total));
    if (fair != fgWays_ || !installed_)
        ++reallocations_;
    fgWays_ = fair;
    installed_ = true;
    retryPending_ = false;
    retryCount_ = 0;
    consecRemaskFails_ = 0;
    healthyStreak_ = 0;
    phaseStarts_ = false;
    pushHealth(sys, HealthEventKind::FallbackEntered, count);
    if (obs::enabled()) {
        obs::metrics().counter("partitioner.watchdog_fallbacks").inc();
        Decision fell;
        fell.rule = DecisionRule::FallbackEnter;
        fell.targetFgWays = fair;
        journalDecision(
            sys, snapshotInputs(0.0, smoothed_, PhaseEvent::Stable), fell);
    }
}

void
DynamicPartitioner::resumeDynamic(System &sys)
{
    mode_ = ControlMode::Dynamic;
    badTelemetry_ = 0;
    healthyStreak_ = 0;
    consecRemaskFails_ = 0;
    haveSuspect_ = false;
    haveSmoothed_ = false;
    haveLast_ = false;
    detector_.reset();
    pushHealth(sys, HealthEventKind::DynamicResumed, 0);
    if (obs::enabled())
        obs::metrics().counter("partitioner.watchdog_recoveries").inc();
    // Re-probe from the top, as on a phase start (§6.3). If the
    // fallback was remask-caused, this first write is a probe of the
    // control plane: its failure re-trips the watchdog immediately.
    remaskProbation_ = remaskCausedFallback_;
    phaseStarts_ = true;
    requestWays(sys, maxFgWays_);
    if (obs::enabled()) {
        Decision probe;
        probe.rule = DecisionRule::ResumeProbe;
        probe.targetFgWays = maxFgWays_;
        probe.probingAfter = true;
        journalDecision(
            sys, snapshotInputs(0.0, smoothed_, PhaseEvent::NewPhase),
            probe);
    }
}

DynamicPartitioner::Sample
DynamicPartitioner::classify(const PerfWindow &w)
{
    // A window with no instructions *and* no misses is a legitimately
    // idle interval (a quantum spanning the boundary): its MPKI of zero
    // is real data. Misses without instructions, NaN, or negative MPKI
    // can only come from a corrupted counter read.
    if (!std::isfinite(w.mpki) || w.mpki < 0.0 ||
        (w.insts == 0 && w.llcMisses != 0)) {
        haveSuspect_ = false;
        return Sample::Garbage;
    }
    if (haveSmoothed_) {
        const double level = std::max(smoothed_, kSpikeFloor);
        if (w.mpki > kSpikeRejectFactor * level) {
            if (haveSuspect_) {
                // Two outliers in a row: the application really moved.
                haveSuspect_ = false;
                return Sample::Valid;
            }
            // Quarantine a lone spike as a suspected counter glitch.
            haveSuspect_ = true;
            suspectMpki_ = w.mpki;
            return Sample::Outlier;
        }
    }
    haveSuspect_ = false;
    return Sample::Valid;
}

DecisionInputs
DynamicPartitioner::snapshotInputs(double raw_mpki, double smoothed_mpki,
                                   PhaseEvent ev) const
{
    DecisionInputs in;
    in.rawMpki = raw_mpki;
    in.smoothedMpki = smoothed_mpki;
    in.lastMpki = lastMpki_;
    in.haveLast = haveLast_;
    in.phase = ev;
    in.probing = phaseStarts_;
    in.retryPending = retryPending_;
    in.retryWays = retryWays_;
    in.fgWays = fgWays_;
    in.thr3 = cfg_.thr3;
    in.maxFgWays = maxFgWays_;
    return in;
}

void
DynamicPartitioner::journalDecision(System &sys, const DecisionInputs &in,
                                    const Decision &out)
{
    if (!obs::enabled())
        return;
    const bool applied = !retryPending_ && fgWays_ == out.targetFgWays;
    obs::timeseries().journal(makeDecisionEntry(sys.now() * 1e6, in, out,
                                                sys.llcWays(), applied,
                                                fgWays_));
    static obs::Counter &journaled =
        obs::metrics().counter("partitioner.decisions_journaled");
    journaled.inc();
}

void
DynamicPartitioner::onWindow(System &sys, AppId app, const PerfWindow &w)
{
    if (maxFgWays_ == 0) {
        // The background keeps one way: 11 of 12 on the paper's machine.
        const unsigned total = sys.llcWays();
        if (total <= kMinFgWays + 1) {
            capart_panic("DynamicPartitioner: the probe needs an LLC of"
                         " at least " << kMinFgWays + 2 << " ways (got "
                         << total << ")");
        }
        maxFgWays_ = total - 1;
        fgWays_ = maxFgWays_;
    }
    remasker_->tick(sys);

    if (app != fg_) {
        // The first background's windows are the silence clock: they
        // keep arriving at the sampling period even when the
        // foreground's telemetry is dead.
        if (!bgs_.empty() && app == bgs_.front()) {
            ++fgSilence_;
            if (mode_ == ControlMode::Dynamic &&
                fgSilence_ >= kTelemetryTimeoutWindows)
                enterFallback(sys, fgSilence_, false);
        }
        return;
    }
    fgSilence_ = 0;

    // "When the foreground application starts or changes phase, the
    // framework gives the application as much cache as possible" (§6.3)
    // — application start counts as a phase start, so the controller
    // immediately begins probing downward.
    if (!installed_ && !retryPending_ && mode_ == ControlMode::Dynamic) {
        requestWays(sys, maxFgWays_);
        phaseStarts_ = true;
    }

    // Missing windows (dropped sampling deadlines) show up as holes in
    // the delivered timeline.
    const Seconds len = w.end - w.start;
    if (haveFgWindow_ && len > 0.0 && w.start > lastFgEnd_ + 0.5 * len) {
        const auto gap =
            static_cast<unsigned>((w.start - lastFgEnd_) / len + 0.5);
        badTelemetry_ += gap;
        pushHealth(sys, HealthEventKind::WindowGap, gap);
    }
    haveFgWindow_ = true;
    lastFgEnd_ = w.end;

    const Sample verdict = classify(w);
    if (verdict != Sample::Valid) {
        ++rejectedSamples_;
        ++badTelemetry_;
        healthyStreak_ = 0;
        pushHealth(sys, HealthEventKind::SampleRejected, badTelemetry_);
        if (obs::enabled()) {
            obs::metrics().counter("partitioner.samples_rejected").inc();
            Decision held;
            held.rule = DecisionRule::RejectHold;
            held.targetFgWays = fgWays_;
            held.probingAfter = phaseStarts_;
            journalDecision(
                sys, snapshotInputs(w.mpki, smoothed_, PhaseEvent::Stable),
                held);
        }
        if (mode_ == ControlMode::Dynamic &&
            badTelemetry_ >= kWatchdogThreshold)
            enterFallback(sys, badTelemetry_, false);
        history_.push_back(AllocationEvent{w.end, fgWays_, smoothed_,
                                           PhaseEvent::Stable});
        return;
    }
    if (mode_ == ControlMode::Dynamic &&
        badTelemetry_ >= kWatchdogThreshold) {
        // A gap alone (without an invalid sample) can trip the watchdog.
        enterFallback(sys, badTelemetry_, false);
    }
    badTelemetry_ = 0;

    if (mode_ == ControlMode::Fallback) {
        // Hold the safe partition until the signal proves stable again.
        ++healthyStreak_;
        if (obs::enabled()) {
            Decision held;
            held.rule = DecisionRule::FallbackHold;
            held.targetFgWays = fgWays_;
            journalDecision(
                sys, snapshotInputs(w.mpki, smoothed_, PhaseEvent::Stable),
                held);
        }
        if (healthyStreak_ >= kRecoveryWindows)
            resumeDynamic(sys);
        history_.push_back(AllocationEvent{w.end, fgWays_, w.mpki,
                                           PhaseEvent::Stable});
        return;
    }

    // Smooth the windowed MPKI: scaled-down runs have real sampling
    // noise per window (see kMpkiSmoothing).
    if (!haveSmoothed_) {
        smoothed_ = w.mpki;
        haveSmoothed_ = true;
    } else {
        smoothed_ += kMpkiSmoothing * (w.mpki - smoothed_);
    }
    const double mpki = smoothed_;

    const PhaseEvent ev = detector_.step(mpki);

    // The decision step is a pure function of the inputs snapshotted
    // here; the journal records exactly this (inputs, outputs) pair,
    // which is what makes a recorded decision replayable.
    const DecisionInputs inputs = snapshotInputs(w.mpki, mpki, ev);
    const Decision dec = decidePartition(inputs);

    switch (dec.rule) {
      case DecisionRule::Retry:
        // A mask application is in flight: retry it on schedule and do
        // not take new decisions on state that never landed.
        serviceRetry(sys);
        break;
      case DecisionRule::PhaseStartMax:
        // A new phase begins: give the foreground everything we can,
        // then probe downward from there (Algorithm 6.2).
        if (obs::enabled())
            obs::metrics().counter("partitioner.phase_changes").inc();
        phaseStarts_ = true;
        requestWays(sys, dec.targetFgWays);
        break;
      case DecisionRule::ProbeShrink:
        // Shrinking did not hurt: release another way to the
        // background, until the floor.
        requestWays(sys, dec.targetFgWays);
        break;
      case DecisionRule::SettleFloor:
        // The probe reached the floor without a reaction: settle there.
        phaseStarts_ = false;
        break;
      case DecisionRule::SettleBack:
        // The last shrink showed up in the MPKI: give the way back and
        // settle at the previous allocation.
        if (dec.targetFgWays != fgWays_)
            requestWays(sys, dec.targetFgWays);
        phaseStarts_ = false;
        break;
      default:
        break; // Hold: in transition, or stable without an open probe.
    }
    journalDecision(sys, inputs, dec);

    lastMpki_ = w.mpki;
    haveLast_ = true;
    history_.push_back(AllocationEvent{w.end, fgWays_, mpki, ev});
}

} // namespace capart
