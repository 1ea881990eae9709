#include "stats/summary.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace capart
{

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double sum = 0.0;
    for (double x : xs)
        sum += x;
    return sum / static_cast<double>(xs.size());
}

double
weightedSpeedup(const std::vector<double> &solo_times,
                const std::vector<double> &corun_times)
{
    capart_assert(solo_times.size() == corun_times.size());
    capart_assert(!solo_times.empty());
    double sequential = 0.0;
    double makespan = 0.0;
    for (std::size_t i = 0; i < solo_times.size(); ++i) {
        sequential += solo_times[i];
        makespan = std::max(makespan, corun_times[i]);
    }
    capart_assert(makespan > 0.0);
    return sequential / makespan;
}

double
signTestPValue(unsigned wins, unsigned losses)
{
    const unsigned n = wins + losses;
    if (n == 0)
        return 1.0;
    // P[X >= wins] for X ~ Binomial(n, 1/2), summed in log space so
    // large n cannot overflow the binomial coefficients.
    double p = 0.0;
    double log_choose = 0.0; // log C(n, 0)
    const double log_half_n =
        static_cast<double>(n) * std::log(0.5);
    for (unsigned k = 0; k <= n; ++k) {
        if (k >= wins)
            p += std::exp(log_choose + log_half_n);
        // C(n, k+1) = C(n, k) * (n - k) / (k + 1)
        if (k < n) {
            log_choose += std::log(static_cast<double>(n - k)) -
                          std::log(static_cast<double>(k + 1));
        }
    }
    return std::min(p, 1.0);
}

} // namespace capart
