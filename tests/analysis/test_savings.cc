/** @file Tests for carbon-savings attribution. */

#include "analysis/savings.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

/**
 * Append a 1-core job of whole hours `length` that waited `wait` and
 * saved `saved` grams against running at once. Each job gets its own
 * stretch of `r`'s trace, at 1 kW per core: the first hour of its
 * no-wait window emits `saved` grams if positive, the first hour of
 * its run `-saved` grams if negative, and every other hour nothing.
 * A saving needs the two windows apart, so `wait` (by default
 * `length`) is at least `length` unless `saved` is 0.
 */
void
addOutcome(SimulationResult &r, Seconds length, double saved,
           Seconds wait = -1)
{
    if (wait < 0)
        wait = length;
    GAIA_ASSERT(saved == 0.0 || wait >= length,
                "overlapping windows cannot save");
    // The previous job's stretch ends where its run does.
    const Seconds submit =
        r.outcomes.empty() ? 0 : r.finish(r.outcomes.back());
    std::vector<double> hourly =
        r.outcomes.empty() ? std::vector<double>{} : r.carbon.values();
    const auto first = hourly.size();
    hourly.resize(first + static_cast<std::size_t>(
                              (wait + length) / kSecondsPerHour));
    hourly[first] += std::max(saved, 0.0);
    hourly[first + static_cast<std::size_t>(wait / kSecondsPerHour)] +=
        std::max(-saved, 0.0);
    testutil::setCarbon(r, std::move(hourly), 1000.0);
    testutil::appendOutcome(r, Job{1, submit, length, 1}, 0, 0,
                            {{submit + wait, submit + wait + length,
                              PurchaseOption::OnDemand, 1}});
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
    addOutcome(r, hours(1), 0.0, 0);
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
