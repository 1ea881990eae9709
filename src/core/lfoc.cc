#include "core/lfoc.hh"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>

namespace capart
{

AppClass
lfocClassify(const AppObservation &app, unsigned total_ways)
{
    if (app.missCurve.empty())
        return app.mpki < kLfocLightMpki ? AppClass::Light
                                         : AppClass::Sensitive;
    const double floor = app.curveAt(total_ways);
    if (floor < kLfocLightMpki)
        return AppClass::Light;
    const double one_way = app.curveAt(1);
    if (one_way <= 0.0)
        return AppClass::Streaming; // heavy floor, no gain from capacity
    const double gain = (one_way - floor) / one_way;
    return gain < kLfocFlatCurveGain ? AppClass::Streaming
                                     : AppClass::Sensitive;
}

std::vector<WayMask>
LfocPartitioner::decide(const std::vector<AppObservation> &apps,
                        unsigned total_ways)
{
    const std::size_t n = apps.size();
    assert(n > 0 && total_ways > 0);
    if (err_.size() != n)
        err_.assign(n, 0.0);
    classes_.resize(n);
    targets_.assign(n, 0.0);

    std::vector<std::size_t> sens, light, stream;
    for (std::size_t i = 0; i < n; ++i) {
        classes_[i] = lfocClassify(apps[i], total_ways);
        switch (classes_[i]) {
          case AppClass::Light:
            light.push_back(i);
            break;
          case AppClass::Streaming:
            stream.push_back(i);
            break;
          case AppClass::Sensitive:
            sens.push_back(i);
            break;
        }
        // Only sensitive apps bounce; a reclassified app restarts its
        // accumulator from zero rather than inheriting stale error.
        if (classes_[i] != AppClass::Sensitive)
            err_[i] = 0.0;
    }

    const auto fallback = [&] {
        auto masks = fairMasks(n, total_ways);
        for (std::size_t i = 0; i < n; ++i) {
            targets_[i] = masks[i].count();
            err_[i] = 0.0;
        }
        return masks;
    };
    if (n > total_ways)
        return fallback();

    // Cluster reservations: shrink both clusters to one way apiece if
    // the sensitive apps would otherwise starve, and hand the whole
    // sensitive budget to a cluster when no app is sensitive.
    unsigned light_w = light.empty() ? 0 : kLfocLightWays;
    unsigned stream_w = stream.empty() ? 0 : kLfocStreamWays;
    const auto sens_budget = [&] {
        return static_cast<long>(total_ways) - light_w - stream_w;
    };
    if (!sens.empty() &&
        sens_budget() < static_cast<long>(sens.size())) {
        light_w = light.empty() ? 0 : 1;
        stream_w = stream.empty() ? 0 : 1;
        if (sens_budget() < static_cast<long>(sens.size()))
            return fallback();
    }
    if (sens.empty()) {
        if (!light.empty())
            light_w = total_ways - stream_w;
        else
            stream_w = total_ways;
    }
    const unsigned sens_w = static_cast<unsigned>(sens_budget());

    // Fractional targets: one guaranteed way each, plus the surplus in
    // proportion to achievable miss savings (MPKI stands in when no
    // curve was profiled; all-zero weights degrade to an even split).
    std::vector<double> weight(sens.size(), 0.0);
    double weight_sum = 0.0;
    for (std::size_t j = 0; j < sens.size(); ++j) {
        const AppObservation &a = apps[sens[j]];
        weight[j] = a.missCurve.empty()
                        ? a.mpki
                        : std::max(a.curveAt(1) - a.curveAt(total_ways),
                                   0.0);
        weight_sum += weight[j];
    }
    const double surplus = sens_w - static_cast<double>(sens.size());
    std::vector<double> target(sens.size(), 0.0);
    for (std::size_t j = 0; j < sens.size(); ++j) {
        const double share = weight_sum > 0.0
                                 ? weight[j] / weight_sum
                                 : 1.0 / sens.size();
        target[j] = 1.0 + surplus * share;
        targets_[sens[j]] = target[j];
    }

    // Bounce: largest-remainder rounding with a persistent per-app
    // error accumulator. Each window grants floor(target) ways plus
    // one extra to the apps whose carried error is largest, so the
    // time-averaged allocation converges on the fractional target
    // while every single window still sums to exactly sens_w.
    std::vector<unsigned> grant(sens.size(), 0);
    long granted = 0;
    std::vector<double> score(sens.size(), 0.0);
    for (std::size_t j = 0; j < sens.size(); ++j) {
        grant[j] = static_cast<unsigned>(target[j]);
        score[j] = err_[sens[j]] + (target[j] - grant[j]);
        granted += grant[j];
    }
    long extras = static_cast<long>(sens_w) - granted;
    std::vector<std::size_t> order(sens.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                         return score[a] > score[b];
                     });
    for (const std::size_t j : order) {
        const bool extra = extras > 0;
        if (extra) {
            grant[j] += 1;
            --extras;
        }
        err_[sens[j]] = score[j] - (extra ? 1.0 : 0.0);
    }

    // Layout: dedicated sensitive ranges first (input order), then the
    // shared light slice, then the streaming isolation slice.
    std::vector<WayMask> masks(n);
    unsigned cursor = 0;
    for (std::size_t j = 0; j < sens.size(); ++j) {
        masks[sens[j]] = WayMask::range(cursor, grant[j]);
        cursor += grant[j];
    }
    if (!light.empty()) {
        const WayMask slice = WayMask::range(cursor, light_w);
        cursor += light_w;
        for (const std::size_t i : light) {
            masks[i] = slice;
            targets_[i] = light_w;
        }
    }
    if (!stream.empty()) {
        const WayMask slice = WayMask::range(cursor, stream_w);
        cursor += stream_w;
        for (const std::size_t i : stream) {
            masks[i] = slice;
            targets_[i] = stream_w;
        }
    }
    assert(cursor == total_ways);
    return masks;
}

} // namespace capart
