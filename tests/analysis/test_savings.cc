/** @file Tests for carbon-savings attribution. */

#include "analysis/savings.h"

#include <gtest/gtest.h>

#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

/** Append a job that waited `wait`, then ran for `length`, and saved
 *  `saved` grams: under the zero-intensity trace it emits nothing. */
void
addOutcome(SimulationResult &r, Seconds length, double saved,
           Seconds wait = 0)
{
    testutil::setCarbon(r, {0.0});
    JobOutcome o;
    o.carbon_nowait_g = saved;
    testutil::appendOutcome(
        r, Job{1, 0, length, 1}, o,
        {{wait, wait + length, PurchaseOption::OnDemand, false, 1}});
}

TEST(Savings, CdfByLengthHandExample)
{
    SimulationResult r;
    addOutcome(r, hours(1), 10.0); // 1 h saves 10
    addOutcome(r, hours(4), 30.0); // 4 h saves 30
    addOutcome(r, hours(9), 60.0); // 9 h saves 60

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
    addOutcome(r, hours(1), 0.0);
    const auto cdf = savingsCdfByLength(r, {1.0, 10.0});
    EXPECT_DOUBLE_EQ(cdf[0].second, 0.0);
    EXPECT_DOUBLE_EQ(cdf[1].second, 0.0);
}

TEST(Savings, NegativeContributionsStillSumCorrectly)
{
    SimulationResult r;
    addOutcome(r, hours(1), -5.0);
    addOutcome(r, hours(4), 15.0);
    const auto cdf = savingsCdfByLength(r, {2.0, 5.0});
    EXPECT_DOUBLE_EQ(cdf[0].second, -0.5);
    EXPECT_DOUBLE_EQ(cdf[1].second, 1.0);
}

TEST(Savings, ShareByLengthBand)
{
    SimulationResult r;
    addOutcome(r, hours(1), 10.0);
    addOutcome(r, hours(4), 30.0);
    addOutcome(r, hours(9), 60.0);
    EXPECT_DOUBLE_EQ(savingsShareByLength(r, 0.0, 2.0), 0.1);
    EXPECT_DOUBLE_EQ(savingsShareByLength(r, 3.0, 12.0), 0.9);
    EXPECT_DOUBLE_EQ(savingsShareByLength(r, 20.0, 30.0), 0.0);
}

TEST(Savings, PerWaitingHour)
{
    SimulationResult r;
    // 2 h wait each, 3 kg saved total (3000 g).
    addOutcome(r, hours(1), 1000.0, hours(2));
    addOutcome(r, hours(1), 2000.0, hours(2));
    r.carbon_nowait_kg = 3.0;
    r.carbon_kg = 0.0;
    EXPECT_DOUBLE_EQ(savingsPerWaitingHour(r), 1.5);
}

TEST(Savings, PerWaitingHourZeroWait)
{
    SimulationResult r;
    addOutcome(r, hours(1), 100.0, 0);
    r.carbon_nowait_kg = 0.1;
    EXPECT_DOUBLE_EQ(savingsPerWaitingHour(r), 0.0);
}

TEST(SavingsDeath, UnsortedPointsRejected)
{
    SimulationResult r;
    addOutcome(r, hours(1), 10.0);
    EXPECT_DEATH(savingsCdfByLength(r, {5.0, 1.0}),
                 "ascending");
}

} // namespace
} // namespace gaia
