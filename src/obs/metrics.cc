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

Counter &
MetricsRegistry::counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto &slot = counters_[name];
    if (!slot)
        slot = std::make_unique<Counter>();
    return *slot;
}

void
MetricsRegistry::writeJson(std::ostream &os) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    os << "{\n  \"counters\": {";
    bool first = true;
    for (const auto &[name, c] : counters_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n    \"" << jsonEscape(name) << "\": " << c->value();
    }
    if (!first)
        os << "\n  ";
    os << "}\n}\n";
}

void
MetricsRegistry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &[name, c] : counters_)
        c->reset();
}

MetricsRegistry &
metrics()
{
    static MetricsRegistry registry;
    return registry;
}

} // namespace capart::obs
