/**
 * @file
 * Descriptive statistics used throughout trace analysis and the
 * evaluation harness: running moments, percentiles, CDFs, Pearson
 * correlation, and coefficient of variation.
 */

#ifndef GAIA_COMMON_STATS_H
#define GAIA_COMMON_STATS_H

#include <cstddef>
#include <utility>
#include <vector>

namespace gaia {

/**
 * Single-pass accumulator for mean/variance/min/max (Welford's
 * algorithm, numerically stable).
 */
class RunningStats
{
  public:
    /** Fold one observation into the accumulator. */
    void add(double x);

    /** Merge another accumulator (parallel reduction). */
    void merge(const RunningStats &other);

    std::size_t count() const { return count_; }
    double mean() const;
    /** Population variance (division by n). */
    double variance() const;
    double stddev() const;
    /** Coefficient of variation: stddev / mean (0 when mean == 0). */
    double cov() const;
    double min() const;
    double max() const;
    double sum() const { return sum_; }

  private:
    std::size_t count_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/**
 * Error-free transformation: s = fl(a + b) and the exact rounding
 * error e such that a + b == s + e (Knuth two-sum, no requirement
 * on |a| vs |b|).
 */
inline void
twoSum(double a, double b, double &s, double &e)
{
    s = a + b;
    const double bv = s - a;
    e = (a - (s - bv)) + (b - bv);
}

/**
 * Compensated (double-double) accumulator: the running sum is kept
 * as a non-overlapping hi + lo pair, so totals are exact to well
 * below one ulp regardless of term count or ordering. Used for the
 * carbon prefix-sum tables, where exact sums preserve policy
 * tie-breaks between equal-intensity windows.
 */
struct CompensatedSum
{
    double hi = 0.0;
    double lo = 0.0;

    void add(double term)
    {
        double s, e;
        twoSum(hi, term, s, e);
        e += lo;
        // Fast renormalization (|s| >= |e| here): keeps the pair
        // non-overlapping so later adds stay accurate.
        hi = s + e;
        lo = e - (hi - s);
    }

    /** Round the accumulated sum to the nearest double. */
    double round() const { return hi + lo; }
};

/**
 * Percentile of a sample using linear interpolation between closest
 * ranks. `p` in [0, 100]. The input is copied and sorted.
 */
double percentile(std::vector<double> values, double p);

/** Arithmetic mean; 0 for an empty sample. */
double mean(const std::vector<double> &values);

/** Pearson correlation coefficient; requires equal non-empty sizes. */
double pearson(const std::vector<double> &x,
               const std::vector<double> &y);

/**
 * Empirical CDF evaluated at `points`: one (x, P[X <= x]) pair per
 * requested point.
 */
std::vector<std::pair<double, double>>
empiricalCdf(std::vector<double> sample,
             const std::vector<double> &points);

} // namespace gaia

#endif // GAIA_COMMON_STATS_H
