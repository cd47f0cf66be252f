/** @file Tests for descriptive-statistics helpers. */

#include "common/stats.h"

#include <gtest/gtest.h>

#include <cmath>

namespace gaia {
namespace {

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_DOUBLE_EQ(s.variance(), 4.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 2.0);
    EXPECT_DOUBLE_EQ(s.cov(), 0.4);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, EmptyAccumulatorDefaults)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.variance(), 0.0);
    EXPECT_DOUBLE_EQ(s.cov(), 0.0);
}

TEST(RunningStats, MergeMatchesSequential)
{
    RunningStats a, b, whole;
    for (int i = 0; i < 50; ++i) {
        const double x = std::sin(i) * 10.0 + i;
        (i % 2 ? a : b).add(x);
        whole.add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), whole.count());
    EXPECT_NEAR(a.mean(), whole.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), whole.variance(), 1e-9);
    EXPECT_DOUBLE_EQ(a.min(), whole.min());
    EXPECT_DOUBLE_EQ(a.max(), whole.max());
}

TEST(RunningStats, MergeWithEmptySides)
{
    RunningStats a, empty;
    a.add(3.0);
    a.merge(empty);
    EXPECT_EQ(a.count(), 1u);
    RunningStats c;
    c.merge(a);
    EXPECT_EQ(c.count(), 1u);
    EXPECT_DOUBLE_EQ(c.mean(), 3.0);
}

TEST(Percentile, InterpolatesBetweenRanks)
{
    const std::vector<double> v = {10.0, 20.0, 30.0, 40.0};
    EXPECT_DOUBLE_EQ(percentile(v, 0.0), 10.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100.0), 40.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50.0), 25.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25.0), 17.5);
}

TEST(Percentile, SingletonAndUnsortedInput)
{
    EXPECT_DOUBLE_EQ(percentile({5.0}, 73.0), 5.0);
    EXPECT_DOUBLE_EQ(percentile({3.0, 1.0, 2.0}, 50.0), 2.0);
}

TEST(Mean, HandlesEmptyAndValues)
{
    EXPECT_DOUBLE_EQ(mean({}), 0.0);
    EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
}

TEST(Pearson, PerfectCorrelations)
{
    const std::vector<double> x = {1, 2, 3, 4, 5};
    const std::vector<double> y = {2, 4, 6, 8, 10};
    std::vector<double> neg = {10, 8, 6, 4, 2};
    EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
    EXPECT_NEAR(pearson(x, neg), -1.0, 1e-12);
}

TEST(Pearson, ConstantSeriesIsZero)
{
    EXPECT_DOUBLE_EQ(pearson({1, 1, 1}, {1, 2, 3}), 0.0);
}

TEST(EmpiricalCdf, StepsAtSamplePoints)
{
    const auto cdf =
        empiricalCdf({1.0, 2.0, 2.0, 4.0}, {0.5, 1.0, 2.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.0);
    EXPECT_DOUBLE_EQ(cdf[1].second, 0.25);
    EXPECT_DOUBLE_EQ(cdf[2].second, 0.75);
    EXPECT_DOUBLE_EQ(cdf[3].second, 1.0);
}

TEST(StatsDeath, InvalidInputsRejected)
{
    EXPECT_DEATH(percentile({}, 50.0), "empty sample");
    EXPECT_DEATH(percentile({1.0}, 101.0), "out of range");
    EXPECT_DEATH(pearson({1.0}, {1.0, 2.0}), "size mismatch");
    EXPECT_DEATH(pearson({1.0}, {1.0}), "at least two");
}

} // namespace
} // namespace gaia
