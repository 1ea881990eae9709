/**
 * @file
 * MetricsRegistry: named counters and histograms with lock-free
 * hot-path updates and JSON export.
 *
 * The registry is process-wide, and a sweep runs many simulations in
 * it, so it holds only values that add up across runs: event counts
 * and sample distributions. A per-run level (a way allocation, a burn
 * rate) is a field of that run's journal record (obs/timeseries.hh).
 *
 * Registration (looking a metric up by name) takes a mutex; the
 * returned reference is stable for the registry's lifetime, so hot
 * paths cache it once and then update with relaxed atomics only:
 *
 *     if (obs::enabled()) {
 *         static obs::Counter &quanta =
 *             obs::metrics().counter("sim.quanta");
 *         quanta.inc();
 *     }
 *
 * The function-local static keeps the lookup off the hot path *and*
 * defers it until observability is actually enabled.
 */

#ifndef CAPART_OBS_METRICS_HH
#define CAPART_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/obs.hh"

namespace capart::obs
{

/** Monotonically increasing event count. */
class Counter
{
  public:
    void
    inc(std::uint64_t n = 1)
    {
        v_.fetch_add(n, std::memory_order_relaxed);
    }

    std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }

    void reset() { v_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<std::uint64_t> v_{0};
};

/**
 * Power-of-two-bucketed histogram of non-negative integer samples
 * (latencies in ns, sizes in bytes, retry counts). Bucket i counts
 * samples whose value needs i significant bits, i.e. bucket upper
 * bounds 0, 1, 3, 7, ..., 2^k - 1.
 */
class Histogram
{
  public:
    static constexpr unsigned kBuckets = 65;

    void
    record(std::uint64_t v)
    {
        buckets_[std::bit_width(v)].fetch_add(1,
                                              std::memory_order_relaxed);
        sum_.fetch_add(v, std::memory_order_relaxed);
    }

    std::uint64_t
    count() const
    {
        std::uint64_t n = 0;
        for (const auto &b : buckets_)
            n += b.load(std::memory_order_relaxed);
        return n;
    }

    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }

    std::uint64_t
    bucket(unsigned i) const
    {
        return buckets_[i].load(std::memory_order_relaxed);
    }

    /** Inclusive upper bound of bucket @p i (max for the last). */
    static std::uint64_t
    bucketBound(unsigned i)
    {
        if (i >= 64)
            return ~0ULL;
        return (1ULL << i) - 1;
    }

    /** Inclusive lower bound of bucket @p i (0 for the first). */
    static std::uint64_t
    bucketLowerBound(unsigned i)
    {
        return i == 0 ? 0 : bucketBound(i - 1) + 1;
    }

    /**
     * Approximate quantile @p q in [0, 1], linearly interpolated
     * inside the winning power-of-two bucket (so the estimate is
     * exact to within that bucket's span). Returns 0 for an empty
     * histogram. Export-time only — walks every bucket.
     */
    double percentile(double q) const;

    void
    reset()
    {
        for (auto &b : buckets_)
            b.store(0, std::memory_order_relaxed);
        sum_.store(0, std::memory_order_relaxed);
    }

  private:
    std::array<std::atomic<std::uint64_t>, kBuckets> buckets_{};
    std::atomic<std::uint64_t> sum_{0};
};

/**
 * Owns every named metric. Thread-safe; lookups lock, updates through
 * the returned references do not. Export order is deterministic
 * (lexicographic by name) so repeated dumps diff cleanly.
 */
class MetricsRegistry
{
  public:
    /** Find or create; the reference stays valid for the registry's life. */
    Counter &counter(const std::string &name);
    Histogram &histogram(const std::string &name);

    /**
     * {"counters": {...}, "histograms": {...}} with
     * histogram buckets as [{"le": bound, "n": count}, ...] (zero
     * buckets omitted) plus p50/p90/p99 summaries interpolated from
     * the log2 buckets.
     */
    void writeJson(std::ostream &os) const;

    /** Zero every metric's value; registered names persist. */
    void reset();

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

/** The process-wide registry every instrumentation seam writes to. */
MetricsRegistry &metrics();

} // namespace capart::obs

#endif // CAPART_OBS_METRICS_HH
