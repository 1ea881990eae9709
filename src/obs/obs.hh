/**
 * @file
 * Master switch of the observability layer (src/obs).
 *
 * Recording is off until setEnabled(true); the benches flip it for
 * --obs-dir, the one flag that arms it. The disabled hot path is one
 * relaxed atomic load.
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

/** @cond INTERNAL */
namespace detail
{
extern std::atomic<bool> gEnabled;
} // namespace detail
/** @endcond */

/**
 * True when instrumentation sites should record: one relaxed atomic
 * load, cheap enough to guard per-quantum counters.
 */
inline bool
enabled()
{
    return detail::gEnabled.load(std::memory_order_relaxed);
}

/** Turn runtime recording on or off. */
void setEnabled(bool on);

} // namespace capart::obs

#endif // CAPART_OBS_OBS_HH
