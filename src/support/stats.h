/**
 * @file
 * Small sample-statistics helper for the uncertainty module.
 */

#ifndef ECOCHIP_SUPPORT_STATS_H
#define ECOCHIP_SUPPORT_STATS_H

#include <vector>

namespace ecochip {

/** Summary statistics of a sample set. */
class SampleStats
{
  public:
    /**
     * Take ownership of @p samples and sort them in place on
     * order-preserving keys (from 1024 samples on, an LSD radix
     * sort through one scratch buffer of the same size). The mean
     * and standard deviation are summed in sorted order.
     *
     * Non-finite samples never fail: infinities sort to the ends,
     * and a NaN sorts below -inf or above +inf by its sign bit and
     * turns the mean and standard deviation into NaN. -0 sorts
     * before +0.
     */
    explicit SampleStats(std::vector<double> samples);

    /** Number of samples. */
    std::size_t count() const { return sorted_.size(); }

    /** Arithmetic mean. */
    double mean() const { return mean_; }

    /** Sample standard deviation (n-1 denominator). */
    double stddev() const { return stddev_; }

    /** Smallest sample. */
    double min() const { return sorted_.front(); }

    /** Largest sample. */
    double max() const { return sorted_.back(); }

    /**
     * Linear-interpolation percentile.
     *
     * @param p Percentile in [0, 100].
     */
    double percentile(double p) const;

  private:
    std::vector<double> sorted_;
    double mean_ = 0.0;
    double stddev_ = 0.0;
};

} // namespace ecochip

#endif // ECOCHIP_SUPPORT_STATS_H
