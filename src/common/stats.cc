#include "common/stats.h"

#include <algorithm>
#include <cmath>

#include "common/logging.h"

namespace gaia {

void
RunningStats::add(double x)
{
    if (count_ == 0) {
        min_ = x;
        max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++count_;
    sum_ += x;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(count_);
    m2_ += delta * (x - mean_);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.count_ == 0)
        return;
    if (count_ == 0) {
        *this = other;
        return;
    }
    const double na = static_cast<double>(count_);
    const double nb = static_cast<double>(other.count_);
    const double delta = other.mean_ - mean_;
    const double n = na + nb;
    mean_ += delta * nb / n;
    m2_ += other.m2_ + delta * delta * na * nb / n;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    count_ += other.count_;
}

double
RunningStats::mean() const
{
    return count_ == 0 ? 0.0 : mean_;
}

double
RunningStats::variance() const
{
    return count_ == 0 ? 0.0 : m2_ / static_cast<double>(count_);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::cov() const
{
    const double m = mean();
    return m == 0.0 ? 0.0 : stddev() / m;
}

double
RunningStats::min() const
{
    GAIA_ASSERT(count_ > 0, "min() of empty accumulator");
    return min_;
}

double
RunningStats::max() const
{
    GAIA_ASSERT(count_ > 0, "max() of empty accumulator");
    return max_;
}

double
percentile(std::vector<double> values, double p)
{
    GAIA_ASSERT(!values.empty(), "percentile of empty sample");
    GAIA_ASSERT(p >= 0.0 && p <= 100.0, "percentile out of range: ", p);
    std::sort(values.begin(), values.end());
    if (values.size() == 1)
        return values.front();
    const double rank =
        p / 100.0 * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const auto hi = static_cast<std::size_t>(std::ceil(rank));
    const double frac = rank - std::floor(rank);
    return values[lo] + frac * (values[hi] - values[lo]);
}

double
mean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
    double total = 0.0;
    for (double v : values)
        total += v;
    return total / static_cast<double>(values.size());
}

double
pearson(const std::vector<double> &x, const std::vector<double> &y)
{
    GAIA_ASSERT(x.size() == y.size(), "pearson: size mismatch ",
                x.size(), " vs ", y.size());
    GAIA_ASSERT(x.size() >= 2, "pearson: need at least two points");
    const double mx = mean(x);
    const double my = mean(y);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < x.size(); ++i) {
        const double dx = x[i] - mx;
        const double dy = y[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx == 0.0 || syy == 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

std::vector<std::pair<double, double>>
empiricalCdf(std::vector<double> sample,
             const std::vector<double> &points)
{
    GAIA_ASSERT(!sample.empty(), "empiricalCdf of empty sample");
    std::sort(sample.begin(), sample.end());
    std::vector<std::pair<double, double>> out;
    out.reserve(points.size());
    for (double x : points) {
        const auto it =
            std::upper_bound(sample.begin(), sample.end(), x);
        const double frac =
            static_cast<double>(it - sample.begin()) /
            static_cast<double>(sample.size());
        out.emplace_back(x, frac);
    }
    return out;
}

} // namespace gaia
