#include "obs/metrics.hh"

#include <ostream>

#include "common/json.hh"

namespace capart::obs
{

namespace detail
{
std::atomic<bool> gEnabled{false};
} // namespace detail

void
setEnabled(bool on)
{
    detail::gEnabled.store(on, std::memory_order_relaxed);
}

namespace
{

template <typename Map, typename Fn>
void
writeJsonSection(std::ostream &os, const char *title, const Map &map,
                 Fn &&value, bool &first_section)
{
    if (!first_section)
        os << ",\n";
    first_section = false;
    os << "  \"" << title << "\": {";
    bool first = true;
    for (const auto &[name, metric] : map) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    \"" << jsonEscape(name) << "\": ";
        value(os, *metric);
    }
    if (!first)
        os << "\n  ";
    os << "}";
}

} // namespace

double
Histogram::percentile(double q) const
{
    // Snapshot the buckets once: concurrent record() calls may land
    // while we walk, and a consistent-if-slightly-stale view beats a
    // torn one.
    std::array<std::uint64_t, kBuckets> snap;
    std::uint64_t total = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        snap[i] = buckets_[i].load(std::memory_order_relaxed);
        total += snap[i];
    }
    if (total == 0)
        return 0.0;
    if (q < 0.0)
        q = 0.0;
    if (q > 1.0)
        q = 1.0;
    const double target = q * static_cast<double>(total);
    double before = 0.0;
    unsigned last_nonempty = 0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (snap[i] == 0)
            continue;
        last_nonempty = i;
        const double n = static_cast<double>(snap[i]);
        if (before + n >= target) {
            const double lo =
                static_cast<double>(bucketLowerBound(i));
            const double hi = static_cast<double>(bucketBound(i));
            double frac = (target - before) / n;
            if (frac < 0.0)
                frac = 0.0;
            if (frac > 1.0)
                frac = 1.0;
            return lo + frac * (hi - lo);
        }
        before += n;
    }
    // Floating-point slack pushed the target past the running sum:
    // the answer is the top of the highest occupied bucket.
    return static_cast<double>(bucketBound(last_nonempty));
}

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

Histogram &
MetricsRegistry::histogram(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = histograms_[name];
    if (!slot)
        slot = std::make_unique<Histogram>();
    return *slot;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n";
    bool first_section = true;
    writeJsonSection(os, "counters", counters_,
                     [](std::ostream &o, const Counter &c) {
                         o << c.value();
                     },
                     first_section);
    writeJsonSection(
        os, "histograms", histograms_,
        [](std::ostream &o, const Histogram &h) {
            o << "{\"count\": " << h.count() << ", \"sum\": " << h.sum()
              << ", \"p50\": " << h.percentile(0.50)
              << ", \"p90\": " << h.percentile(0.90)
              << ", \"p99\": " << h.percentile(0.99)
              << ", \"buckets\": [";
            bool first = true;
            for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
                const std::uint64_t n = h.bucket(i);
                if (n == 0)
                    continue;
                if (!first)
                    o << ", ";
                first = false;
                o << "{\"le\": " << Histogram::bucketBound(i)
                  << ", \"n\": " << n << "}";
            }
            o << "]}";
        },
        first_section);
    os << "\n}\n";
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
    for (auto &[name, h] : histograms_)
        h->reset();
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace capart::obs
