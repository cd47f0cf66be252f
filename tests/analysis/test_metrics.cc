/** @file Tests for metric extraction and normalization. */

#include "analysis/metrics.h"

#include <gtest/gtest.h>

#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

MetricsRow
row(const std::string &label, double carbon, double cost,
    double wait, double completion)
{
    return {label, carbon, cost, wait, completion};
}

TEST(Metrics, ExtractFromResult)
{
    SimulationResult r;
    r.carbon_kg = 12.0;
    r.reserved_upfront = 3.0;
    r.on_demand_cost = 2.0;
    r.spot_cost = 1.0;
    testutil::appendOutcome(
        r, Job{1, 0, 3600, 1}, 0, 0,
        {{3600, 7200, PurchaseOption::OnDemand, 1}});

    const MetricsRow m = metricsOf("x", r);
    EXPECT_EQ(m.label, "x");
    EXPECT_DOUBLE_EQ(m.carbon_kg, 12.0);
    EXPECT_DOUBLE_EQ(m.cost, 6.0);
    EXPECT_DOUBLE_EQ(m.wait_hours, 1.0);
    EXPECT_DOUBLE_EQ(m.completion_hours, 2.0);
}

TEST(Metrics, NormalizedToMax)
{
    const auto rows = normalizedToMax({
        row("a", 10.0, 4.0, 2.0, 8.0),
        row("b", 5.0, 8.0, 1.0, 4.0),
    });
    EXPECT_DOUBLE_EQ(rows[0].carbon_kg, 1.0);
    EXPECT_DOUBLE_EQ(rows[1].carbon_kg, 0.5);
    EXPECT_DOUBLE_EQ(rows[0].cost, 0.5);
    EXPECT_DOUBLE_EQ(rows[1].cost, 1.0);
    EXPECT_DOUBLE_EQ(rows[0].wait_hours, 1.0);
    EXPECT_DOUBLE_EQ(rows[1].completion_hours, 0.5);
}

TEST(Metrics, NormalizedToMaxWithAllZeroMetric)
{
    const auto rows = normalizedToMax({
        row("a", 0.0, 1.0, 0.0, 1.0),
        row("b", 0.0, 2.0, 0.0, 2.0),
    });
    EXPECT_DOUBLE_EQ(rows[0].carbon_kg, 0.0);
    EXPECT_DOUBLE_EQ(rows[1].carbon_kg, 0.0);
    EXPECT_DOUBLE_EQ(rows[1].cost, 1.0);
}

TEST(Metrics, NormalizedToBaseline)
{
    const MetricsRow base = row("base", 10.0, 5.0, 2.0, 4.0);
    const auto rows = normalizedTo(base, {
        row("a", 5.0, 10.0, 1.0, 8.0),
    });
    EXPECT_DOUBLE_EQ(rows[0].carbon_kg, 0.5);
    EXPECT_DOUBLE_EQ(rows[0].cost, 2.0);
    EXPECT_DOUBLE_EQ(rows[0].wait_hours, 0.5);
    EXPECT_DOUBLE_EQ(rows[0].completion_hours, 2.0);
}

TEST(Metrics, NormalizedToZeroBasePassesThrough)
{
    const MetricsRow base = row("base", 0.0, 5.0, 0.0, 1.0);
    const auto rows =
        normalizedTo(base, {row("a", 7.0, 10.0, 3.0, 2.0)});
    EXPECT_DOUBLE_EQ(rows[0].carbon_kg, 7.0); // untouched
    EXPECT_DOUBLE_EQ(rows[0].cost, 2.0);
}

} // namespace
} // namespace gaia
