/** @file Tests for carbon-savings attribution. */

#include "analysis/savings.h"

#include <gtest/gtest.h>

namespace gaia {
namespace {

JobOutcome
outcomeWith(Seconds length, double saved, Seconds wait = 0)
{
    JobOutcome o;
    o.id = 1;
    o.submit = 0;
    o.length = length;
    o.cpus = 1;
    o.segments.push_back(
        {wait, wait + length, PurchaseOption::OnDemand, false});
    o.carbon_nowait_g = saved;
    o.carbon_g = 0.0;
    return o;
}

TEST(Savings, CdfByLengthHandExample)
{
    SimulationResult r;
    r.outcomes.push_back(outcomeWith(hours(1), 10.0)); // 1 h saves 10
    r.outcomes.push_back(outcomeWith(hours(4), 30.0)); // 4 h saves 30
    r.outcomes.push_back(outcomeWith(hours(9), 60.0)); // 9 h saves 60

    const auto cdf =
        savingsCdfByLength(r, {0.5, 1.0, 5.0, 10.0});
    ASSERT_EQ(cdf.size(), 4u);
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.0);
    EXPECT_DOUBLE_EQ(cdf[1].second, 0.1);
    EXPECT_DOUBLE_EQ(cdf[2].second, 0.4);
    EXPECT_DOUBLE_EQ(cdf[3].second, 1.0);
}

TEST(Savings, CdfWithZeroTotalSavingsIsAllZero)
{
    SimulationResult r;
    r.outcomes.push_back(outcomeWith(hours(1), 0.0));
    const auto cdf = savingsCdfByLength(r, {1.0, 10.0});
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.0);
    EXPECT_DOUBLE_EQ(cdf[1].second, 0.0);
}

TEST(Savings, NegativeContributionsStillSumCorrectly)
{
    SimulationResult r;
    r.outcomes.push_back(outcomeWith(hours(1), -5.0));
    r.outcomes.push_back(outcomeWith(hours(4), 15.0));
    const auto cdf = savingsCdfByLength(r, {2.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf[0].second, -0.5);
    EXPECT_DOUBLE_EQ(cdf[1].second, 1.0);
}

TEST(Savings, ShareByLengthBand)
{
    SimulationResult r;
    r.outcomes.push_back(outcomeWith(hours(1), 10.0));
    r.outcomes.push_back(outcomeWith(hours(4), 30.0));
    r.outcomes.push_back(outcomeWith(hours(9), 60.0));
    EXPECT_DOUBLE_EQ(savingsShareByLength(r, 0.0, 2.0), 0.1);
    EXPECT_DOUBLE_EQ(savingsShareByLength(r, 3.0, 12.0), 0.9);
    EXPECT_DOUBLE_EQ(savingsShareByLength(r, 20.0, 30.0), 0.0);
}

TEST(Savings, PerWaitingHour)
{
    SimulationResult r;
    // 2 h wait each, 3 kg saved total (3000 g).
    JobOutcome a = outcomeWith(hours(1), 1000.0, hours(2));
    JobOutcome b = outcomeWith(hours(1), 2000.0, hours(2));
    r.outcomes.push_back(a);
    r.outcomes.push_back(b);
    r.carbon_nowait_kg = 3.0;
    r.carbon_kg = 0.0;
    EXPECT_DOUBLE_EQ(savingsPerWaitingHour(r), 1.5);
}

TEST(Savings, PerWaitingHourZeroWait)
{
    SimulationResult r;
    r.outcomes.push_back(outcomeWith(hours(1), 100.0, 0));
    r.carbon_nowait_kg = 0.1;
    EXPECT_DOUBLE_EQ(savingsPerWaitingHour(r), 0.0);
}

TEST(SavingsDeath, UnsortedPointsRejected)
{
    SimulationResult r;
    r.outcomes.push_back(outcomeWith(hours(1), 10.0));
    EXPECT_DEATH(savingsCdfByLength(r, {5.0, 1.0}),
                 "ascending");
}

} // namespace
} // namespace gaia
