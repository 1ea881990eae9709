/**
 * @file
 * Small statistics helpers: running aggregates, the mean and weighted
 * speedup the paper's evaluation metrics use, and the sign test the
 * report's regression gate uses.
 */

#ifndef CAPART_STATS_SUMMARY_HH
#define CAPART_STATS_SUMMARY_HH

#include <cstdint>
#include <limits>
#include <vector>

namespace capart
{

/** Incremental count / mean / min / max. */
class RunningStat
{
  public:
    /** Fold one sample into the aggregate. */
    void
    add(double x)
    {
        ++n_;
        const double delta = x - mean_;
        mean_ += delta / static_cast<double>(n_);
        if (x < min_)
            min_ = x;
        if (x > max_)
            max_ = x;
    }

    std::uint64_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }

  private:
    std::uint64_t n_ = 0;
    double mean_ = 0.0;
    double min_ = std::numeric_limits<double>::infinity();
    double max_ = -std::numeric_limits<double>::infinity();
};

/** Arithmetic mean of a vector; 0 for empty input. */
double mean(const std::vector<double> &xs);

/**
 * Weighted speedup of a co-run versus sequential execution (Fig. 11):
 * with per-app co-run times t_i and solo times s_i, the consolidated
 * makespan is max(t_i) and the sequential makespan is sum(s_i).
 */
double weightedSpeedup(const std::vector<double> &solo_times,
                       const std::vector<double> &corun_times);

/**
 * One-sided sign test: the probability of seeing >= @p wins successes
 * in @p wins + @p losses fair coin flips (ties are excluded by the
 * caller). This is the p-value for "current is genuinely worse than
 * baseline" when each paired sweep point that moved in the worse
 * direction counts as a win. Distribution-free, so it needs no
 * assumption about how per-point deltas are shaped. Returns 1 when
 * there are no untied pairs.
 */
double signTestPValue(unsigned wins, unsigned losses);

} // namespace capart

#endif // CAPART_STATS_SUMMARY_HH
