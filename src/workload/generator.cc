#include "workload/generator.hh"

#include <cmath>

#include "common/logging.hh"
#include "workload/access_ring.hh"

namespace capart
{

Insts
threadWorkShare(const AppParams &params, unsigned thread_idx,
                unsigned num_threads)
{
    capart_assert(num_threads >= 1);
    const unsigned used = std::min(num_threads, params.maxThreads);
    if (thread_idx >= used)
        return 0;

    const double total = static_cast<double>(params.lengthInsts);
    const double parallel = total * (1.0 - params.serialFraction);
    // Synchronization inflates every thread's parallel share as threads
    // are added (barriers, GC handshakes, lock traffic).
    const double inflation =
        1.0 + params.syncCost * static_cast<double>(used - 1);
    double share = parallel / static_cast<double>(used) * inflation;
    if (thread_idx == 0)
        share += total * params.serialFraction;
    return static_cast<Insts>(std::llround(share));
}

ThreadWorkload::ThreadWorkload(const AppParams &params, unsigned thread_idx,
                               unsigned num_threads, Addr base,
                               std::uint64_t seed)
    : params_(params), threadIdx_(thread_idx), rng_(seed)
{
    params.validate();
    totalWork_ = threadWorkShare(params, thread_idx, num_threads);

    // Lay the regions of every phase/pattern out consecutively from the
    // app base so distinct patterns never alias. Regions are shared by
    // all threads of the app; walking cursors start at a per-thread
    // random offset so streams from different threads interleave.
    Addr next = base;
    std::uint64_t pattern_pc = (static_cast<std::uint64_t>(base >> 20) << 8);
    double phase_cum = 0.0;
    for (const auto &phase : params.phases) {
        std::vector<PatternState> states;
        std::vector<double> cdf;
        double cum = 0.0;
        double chase_weight = 0.0;
        for (const auto &pat : phase.patterns) {
            PatternState st;
            st.regionBase = next;
            st.lines = (pat.regionBytes + kLineBytes - 1) / kLineBytes;
            st.cursor =
                (rng_.below(st.lines) * kLineBytes) % pat.regionBytes;
            st.pc = pattern_pc++;
            next += pat.regionBytes + kLineBytes; // pad to avoid aliasing
            states.push_back(st);
            cum += pat.weight;
            cdf.push_back(cum);
            if (pat.kind == PatternKind::PointerChase)
                chase_weight += pat.weight;
        }
        state_.push_back(std::move(states));
        weightCdf_.push_back(std::move(cdf));

        const double f = chase_weight / cum;
        phaseMlp_.push_back(1.0 / (f + (1.0 - f) / params.mlp));

        phase_cum += phase.instFraction;
        phaseCdf_.push_back(phase_cum);
    }
}

void
ThreadWorkload::restart()
{
    retired_ = 0;
    memCarry_ = 0.0;
}

unsigned
ThreadWorkload::phaseIndexAt(double app_progress) const
{
    for (unsigned i = 0; i < phaseCdf_.size(); ++i) {
        if (app_progress < phaseCdf_[i])
            return i;
    }
    return static_cast<unsigned>(phaseCdf_.size()) - 1;
}

double
ThreadWorkload::effectiveMlp(double app_progress) const
{
    return phaseMlp_[phaseIndexAt(app_progress)];
}

unsigned
ThreadWorkload::pickPattern(unsigned phase_idx)
{
    const auto &cdf = weightCdf_[phase_idx];
    if (cdf.size() == 1)
        return 0;
    const double r = rng_.uniform() * cdf.back();
    for (unsigned i = 0; i < cdf.size(); ++i) {
        if (r < cdf[i])
            return i;
    }
    return static_cast<unsigned>(cdf.size()) - 1;
}

MemAccess
ThreadWorkload::genAccess(unsigned phase_idx, unsigned pattern_idx)
{
    const PatternSpec &spec = params_.phases[phase_idx].patterns[pattern_idx];
    PatternState &st = state_[phase_idx][pattern_idx];

    MemAccess acc;
    acc.pc = st.pc;
    acc.write = rng_.chance(spec.writeFraction);

    switch (spec.kind) {
      case PatternKind::Sequential:
      case PatternKind::Strided:
        if (spec.jumpProbability > 0.0 &&
            rng_.chance(spec.jumpProbability)) {
            st.cursor = rng_.below(st.lines) * kLineBytes;
        }
        acc.addr = st.regionBase + st.cursor;
        st.cursor += spec.strideBytes;
        if (st.cursor >= spec.regionBytes)
            st.cursor %= spec.regionBytes;
        break;
      case PatternKind::RandomInRegion:
      case PatternKind::PointerChase:
        acc.addr = st.regionBase + rng_.below(st.lines) * kLineBytes +
                   rng_.below(kLineBytes / 8) * 8;
        break;
      case PatternKind::StreamUncached:
        acc.addr = st.regionBase + st.cursor;
        st.cursor += spec.strideBytes;
        if (st.cursor >= spec.regionBytes)
            st.cursor %= spec.regionBytes;
        acc.uncached = true;
        break;
    }
    return acc;
}

Insts
ThreadWorkload::runQuantum(Insts max_insts, double app_progress,
                           std::vector<MemAccess> &out)
{
    if (done() || max_insts == 0)
        return 0;

    const Insts remaining = totalWork_ - retired_;
    const Insts insts = std::min<Insts>(max_insts, remaining);
    const unsigned phase_idx = phaseIndexAt(app_progress);
    const PhaseSpec &phase = params_.phases[phase_idx];

    const double exact =
        static_cast<double>(insts) * phase.memRatio + memCarry_;
    auto accesses = static_cast<std::uint64_t>(exact);
    memCarry_ = exact - static_cast<double>(accesses);

    out.reserve(out.size() + accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        out.push_back(genAccess(phase_idx, pickPattern(phase_idx)));

    retired_ += insts;
    return insts;
}

Insts
ThreadWorkload::runQuantum(Insts max_insts, double app_progress,
                           AccessRing &ring)
{
    if (done() || max_insts == 0)
        return 0;

    const Insts remaining = totalWork_ - retired_;
    const Insts insts = std::min<Insts>(max_insts, remaining);
    const unsigned phase_idx = phaseIndexAt(app_progress);
    const PhaseSpec &phase = params_.phases[phase_idx];

    const double exact =
        static_cast<double>(insts) * phase.memRatio + memCarry_;
    auto accesses = static_cast<std::uint64_t>(exact);
    memCarry_ = exact - static_cast<double>(accesses);

    // One claim for the whole known-size block; the emit loop writes
    // through a raw cursor with no growth checks. RNG consumption per
    // access is identical to the vector overload above.
    MemAccess *dst = ring.claim(accesses);
    for (std::uint64_t i = 0; i < accesses; ++i)
        dst[i] = genAccess(phase_idx, pickPattern(phase_idx));
    ring.commit(accesses);

    retired_ += insts;
    return insts;
}

} // namespace capart
