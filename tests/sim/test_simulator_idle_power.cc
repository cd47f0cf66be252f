/** @file Tests for idle-reserved power accounting. */

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

using testutil::oneQueue;

TEST(IdlePower, DisabledByDefault)
{
    const CarbonTrace carbon("flat",
                             std::vector<double>(24 * 40, 100.0));
    const CarbonInfoService cis(carbon);
    const JobTrace trace("t", {{1, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 4;
    const PolicyPtr p = makePolicy("NoWait");
    const SimulationResult r =
        testutil::runSim(trace, *p, oneQueue(), cis, cluster,
                 ResourceStrategy::ReservedFirst);
    EXPECT_DOUBLE_EQ(r.idle_carbon_kg, 0.0);
    EXPECT_DOUBLE_EQ(r.idle_energy_kwh, 0.0);
}

TEST(IdlePower, ClosedFormOnFlatTrace)
{
    const CarbonTrace carbon("flat",
                             std::vector<double>(24 * 40, 100.0));
    const CarbonInfoService cis(carbon);
    // One 1-core job for 1 h against 2 reserved cores.
    const JobTrace trace("t", {{1, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 2;
    cluster.reserved_idle_power_fraction = 0.5;
    cluster.reservation_horizon = hours(10);

    const PolicyPtr p = makePolicy("NoWait");
    const SimulationResult r =
        testutil::runSim(trace, *p, oneQueue(), cis, cluster,
                 ResourceStrategy::ReservedFirst);

    // Idle core-hours: 2 cores x 10 h - 1 busy core-hour = 19.
    // Idle power: 0.5 x 5 W = 2.5 W -> 47.5 Wh = 0.0475 kWh.
    EXPECT_NEAR(r.idle_energy_kwh, 19.0 * 0.0025, 1e-12);
    // At 100 g/kWh -> 4.75 g.
    EXPECT_NEAR(r.idle_carbon_kg, 19.0 * 0.0025 * 0.1, 1e-12);
    // Totals include the idle share.
    const double busy_kwh = 0.005; // 1 core-hour at 5 W
    EXPECT_NEAR(r.energy_kwh, busy_kwh + r.idle_energy_kwh, 1e-12);
}

TEST(IdlePower, ReservedWorkPastTheHorizonCountsOnlyInsideIt)
{
    // A 3 h reserved job outlasts a 2 h reservation. The reservation
    // pays for [0, 2 h) only, so the job keeps one of the two cores
    // busy for 2 h, and the idle share is 2 core-hours; the hour past
    // the horizon has no idle share and no table slot.
    const CarbonTrace carbon("flat",
                             std::vector<double>(24 * 40, 100.0));
    const CarbonInfoService cis(carbon);
    const JobTrace trace("t", {{1, 0, hours(3), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 2;
    cluster.reserved_idle_power_fraction = 0.5;
    cluster.reservation_horizon = hours(2);

    const PolicyPtr p = makePolicy("NoWait");
    const SimulationResult r =
        testutil::runSim(trace, *p, oneQueue(), cis, cluster,
                         ResourceStrategy::ReservedFirst);

    ASSERT_EQ(r.placements(r.outcomes[0]).size(), 1u);
    EXPECT_EQ(r.placements(r.outcomes[0])[0].option,
              PurchaseOption::Reserved);
    EXPECT_EQ(r.finish(r.outcomes[0]), hours(3));
    // 2 idle core-hours at 0.5 x 5 W: 5 Wh, at 100 g/kWh.
    EXPECT_NEAR(r.idle_energy_kwh, 0.005, 1e-12);
    EXPECT_NEAR(r.idle_carbon_kg, 0.005 * 0.1, 1e-12);
    const double busy_kwh = 0.015; // 3 core-hours at 5 W
    EXPECT_NEAR(r.energy_kwh, busy_kwh + r.idle_energy_kwh, 1e-12);
}

TEST(IdlePower, IdleCarbonFollowsIntensityTiming)
{
    // Intensity is high only in slot 1; a job busy during slot 1
    // shields exactly that hour from idle draw.
    std::vector<double> hourly(24 * 40, 10.0);
    hourly[1] = 1000.0;
    const CarbonTrace carbon("spike", hourly);
    const CarbonInfoService cis(carbon);
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    cluster.reserved_idle_power_fraction = 1.0;
    cluster.reservation_horizon = hours(3);

    const PolicyPtr p = makePolicy("NoWait");
    // Busy during the expensive hour.
    const JobTrace busy_spike("t", {{1, hours(1), hours(1), 1}});
    const SimulationResult a =
        testutil::runSim(busy_spike, *p, oneQueue(), cis, cluster,
                 ResourceStrategy::ReservedFirst);
    // Busy during a cheap hour instead.
    const JobTrace busy_cheap("t", {{1, 0, hours(1), 1}});
    const SimulationResult b =
        testutil::runSim(busy_cheap, *p, oneQueue(), cis, cluster,
                 ResourceStrategy::ReservedFirst);
    EXPECT_LT(a.idle_carbon_kg, b.idle_carbon_kg);
    // a: idle hours 0 and 2 at 10 g; b: idle hours 1 (1000 g) and
    // 2 (10 g), at 5 W.
    EXPECT_NEAR(a.idle_carbon_kg, 0.005 * 20.0 / 1000.0, 1e-12);
    EXPECT_NEAR(b.idle_carbon_kg, 0.005 * 1010.0 / 1000.0, 1e-12);
}

TEST(IdlePower, FractionOutOfRangeIsError)
{
    ClusterConfig cluster;
    cluster.reserved_idle_power_fraction = 1.5;
    const Status status = cluster.validate();
    ASSERT_FALSE(status.isOk());
    EXPECT_NE(status.message().find("idle power fraction"),
              std::string::npos);
}

} // namespace
} // namespace gaia
