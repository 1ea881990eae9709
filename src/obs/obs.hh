/**
 * @file
 * Master switch of the observability layer (src/obs).
 *
 * Observability is gated twice:
 *
 *  - compile time: configuring with -DCAPART_OBS=OFF defines
 *    CAPART_OBS_DISABLED, making enabled() a constant false so every
 *    `if (obs::enabled()) ...` seam is dead code the optimizer deletes;
 *  - run time: even when compiled in, recording is off until
 *    setEnabled(true) (the benches flip it for --obs-dir, --ledger and
 *    --obs-sample-period). The disabled hot path is one relaxed atomic
 *    load.
 *
 * Recording never feeds back into simulation state, so enabling
 * observability cannot change any experiment's output — a property
 * tests/test_obs.cc locks down bit-for-bit.
 */

#ifndef CAPART_OBS_OBS_HH
#define CAPART_OBS_OBS_HH

#include <atomic>

namespace capart::obs
{

#ifdef CAPART_OBS_DISABLED
inline constexpr bool kCompiledIn = false;
#else
inline constexpr bool kCompiledIn = true;
#endif

/** @cond INTERNAL */
namespace detail
{
extern std::atomic<bool> gEnabled;
} // namespace detail
/** @endcond */

/**
 * True when instrumentation sites should record. Constant false when
 * compiled out; otherwise one relaxed atomic load, cheap enough to
 * guard per-quantum counters.
 */
inline bool
enabled()
{
    if constexpr (!kCompiledIn)
        return false;
    else
        return detail::gEnabled.load(std::memory_order_relaxed);
}

/** Turn runtime recording on or off (no-op when compiled out). */
void setEnabled(bool on);

} // namespace capart::obs

#endif // CAPART_OBS_OBS_HH
