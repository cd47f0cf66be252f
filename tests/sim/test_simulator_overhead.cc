/** @file Tests for instance startup/teardown overhead accounting. */

#include <gtest/gtest.h>

#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

using testutil::oneQueue;
using testutil::flatTrace;

TEST(SimulatorOverhead, OnDemandSegmentChargedOnce)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, hours(2), hours(1), 2}});
    ClusterConfig cluster;
    cluster.startup_overhead = minutes(5);

    const PolicyPtr policy = makePolicy("NoWait");
    const SimulationResult r =
        testutil::runSim(trace, *policy, queues, cis);

    // Useful: 2 core-hours; overhead: 2 cores x 5 min.
    const double overhead_cs = 0.0; // default config has none
    (void)overhead_cs;
    const SimulationResult with = testutil::runSim(
        trace, *policy, queues, cis, cluster,
        ResourceStrategy::OnDemandOnly);
    EXPECT_DOUBLE_EQ(with.overhead_core_seconds,
                     2.0 * minutes(5));
    EXPECT_NEAR(with.on_demand_cost - r.on_demand_cost,
                PricingModel{}.usageCost(PurchaseOption::OnDemand,
                                         2.0 * minutes(5)),
                1e-9);
    // Overhead carbon: 0.01 kW x (5/60) h x 100 g/kWh.
    EXPECT_NEAR(with.carbon_kg - r.carbon_kg,
                0.01 * (5.0 / 60.0) * 100.0 / 1000.0, 1e-9);
    // Timing is unchanged — overhead is not useful work.
    EXPECT_EQ(with.start(with.outcomes[0]), r.start(r.outcomes[0]));
    EXPECT_EQ(with.finish(with.outcomes[0]), r.finish(r.outcomes[0]));
}

TEST(SimulatorOverhead, ReservedSegmentsAreExempt)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    cluster.startup_overhead = minutes(10);

    const PolicyPtr policy = makePolicy("NoWait");
    const SimulationResult r =
        testutil::runSim(trace, *policy, queues, cis, cluster,
                 ResourceStrategy::ReservedFirst);
    EXPECT_DOUBLE_EQ(r.overhead_core_seconds, 0.0);
    EXPECT_DOUBLE_EQ(r.on_demand_cost, 0.0);
}

TEST(SimulatorOverhead, SuspendResumePaysPerSegment)
{
    // Two-segment Wait-Awhile plan on on-demand: two acquisitions,
    // twice the overhead — the fragmentation penalty.
    std::vector<double> hourly(24 * 40, 500.0);
    hourly[1] = 10.0;
    hourly[3] = 20.0;
    const CarbonTrace carbon("step", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.startup_overhead = minutes(5);

    const PolicyPtr wa = makePolicy("Wait-Awhile");
    const SimulationResult r = testutil::runSim(
        trace, *wa, queues, cis, cluster,
        ResourceStrategy::OnDemandOnly);
    ASSERT_EQ(r.placements(r.outcomes[0]).size(), 2u);
    EXPECT_DOUBLE_EQ(r.overhead_core_seconds, 2.0 * minutes(5));
    EXPECT_DOUBLE_EQ(r.overheadCoreSeconds(r.outcomes[0]),
                     2.0 * minutes(5));
}

TEST(SimulatorOverhead, ClipsAtTraceStart)
{
    // A job starting at t=0 cannot have pre-start overhead time in
    // the trace; the clipped portion is charged at slot 0's
    // intensity and nothing panics.
    const CarbonTrace carbon = flatTrace(200.0);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(0);
    const JobTrace trace("t", {{1, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.startup_overhead = minutes(30);

    const PolicyPtr policy = makePolicy("NoWait");
    const SimulationResult r = testutil::runSim(
        trace, *policy, queues, cis, cluster,
        ResourceStrategy::OnDemandOnly);
    // Carbon: (1 h useful + 0.5 h overhead) x 5 W x 200 g/kWh.
    EXPECT_NEAR(r.carbon_kg, 0.005 * 1.5 * 200.0 / 1000.0, 1e-12);
}

TEST(SimulatorOverhead, AccountingIdentityHolds)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(4));
    std::vector<Job> jobs;
    for (int i = 0; i < 30; ++i)
        jobs.push_back({i, i * 900, 1800 + i * 120, 1 + i % 2});
    const JobTrace trace("t", std::move(jobs));
    ClusterConfig cluster;
    cluster.reserved_cores = 2;
    cluster.startup_overhead = minutes(3);
    cluster.spot_max_length = kSecondsPerHour;

    const PolicyPtr policy = makePolicy("Carbon-Time");
    const SimulationResult r = testutil::runSim(
        trace, *policy, queues, cis, cluster,
        ResourceStrategy::SpotReserved);

    double placed = 0.0, per_job_overhead = 0.0;
    for (const JobOutcome &o : r.outcomes) {
        for (const PlacedSegment &seg : r.placements(o))
            placed +=
                static_cast<double>(seg.duration()) * r.job(o).cpus;
        per_job_overhead += r.overheadCoreSeconds(o);
    }
    EXPECT_NEAR(per_job_overhead, r.overhead_core_seconds, 1e-9);
    EXPECT_NEAR(placed + r.overhead_core_seconds,
                r.reserved_core_seconds +
                    r.on_demand_core_seconds + r.spot_core_seconds,
                1e-6);

    double variable = 0.0;
    for (const JobOutcome &o : r.outcomes)
        variable += r.variableCost(o);
    EXPECT_NEAR(variable, r.on_demand_cost + r.spot_cost, 1e-6);
}

} // namespace
} // namespace gaia
