/** @file Tests for the deterministic RNG and its distributions. */

#include "common/rng.h"

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <set>
#include <vector>

namespace gaia {
namespace {

TEST(Rng, SameSeedSameStream)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformRange)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
    for (int i = 0; i < 1000; ++i) {
        const double u = rng.uniform(-3.0, 5.0);
        EXPECT_GE(u, -3.0);
        EXPECT_LT(u, 5.0);
    }
}

TEST(Rng, UniformIntCoversInclusiveRange)
{
    Rng rng(11);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const std::int64_t v = rng.uniformInt(3, 7);
        EXPECT_GE(v, 3);
        EXPECT_LE(v, 7);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 5u);
}

TEST(Rng, UniformIntDegenerateRange)
{
    Rng rng(5);
    EXPECT_EQ(rng.uniformInt(42, 42), 42);
}

TEST(Rng, ExponentialMeanConverges)
{
    Rng rng(13);
    double sum = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i)
        sum += rng.exponential(4.0);
    EXPECT_NEAR(sum / n, 4.0, 0.08);
}

TEST(Rng, NormalMoments)
{
    Rng rng(17);
    double sum = 0.0, sq = 0.0;
    const int n = 200000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.normal(2.0, 3.0);
        sum += x;
        sq += x * x;
    }
    const double mean = sum / n;
    const double var = sq / n - mean * mean;
    EXPECT_NEAR(mean, 2.0, 0.05);
    EXPECT_NEAR(std::sqrt(var), 3.0, 0.05);
}

TEST(Rng, LognormalMedian)
{
    Rng rng(19);
    int below = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        below += rng.lognormal(std::log(5.0), 1.0) < 5.0;
    // Median of exp(N(ln 5, 1)) is 5.
    EXPECT_NEAR(static_cast<double>(below) / n, 0.5, 0.01);
}

TEST(Rng, BernoulliFrequency)
{
    Rng rng(23);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
    Rng rng2(29);
    EXPECT_FALSE(rng2.bernoulli(0.0));
    EXPECT_TRUE(rng2.bernoulli(1.0));
}

TEST(Rng, DiscreteRespectsWeights)
{
    Rng rng(31);
    std::vector<int> counts(3, 0);
    const std::array<double, 3> weights = {1.0, 2.0, 6.0};
    const int n = 90000;
    for (int i = 0; i < n; ++i)
        ++counts[rng.discrete(weights)];
    EXPECT_NEAR(counts[0] / static_cast<double>(n), 1.0 / 9.0, 0.01);
    EXPECT_NEAR(counts[1] / static_cast<double>(n), 2.0 / 9.0, 0.01);
    EXPECT_NEAR(counts[2] / static_cast<double>(n), 6.0 / 9.0, 0.01);
}

TEST(Rng, DiscreteZeroWeightNeverChosen)
{
    Rng rng(37);
    const std::array<double, 3> weights = {1.0, 0.0, 1.0};
    for (int i = 0; i < 1000; ++i)
        EXPECT_NE(rng.discrete(weights), 1u);
}

TEST(RngDeath, InvalidParametersRejected)
{
    Rng rng(1);
    EXPECT_DEATH(rng.exponential(0.0), "mean must be positive");
    EXPECT_DEATH(rng.bernoulli(1.5), "out of range");
    EXPECT_DEATH(rng.uniform(5.0, 1.0), "bad uniform range");
    EXPECT_DEATH(rng.discrete({}), "needs weights");
    const std::array<double, 2> zeros = {0.0, 0.0};
    EXPECT_DEATH(rng.discrete(zeros), "sum to zero");
}

} // namespace
} // namespace gaia
