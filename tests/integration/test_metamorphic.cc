/**
 * @file
 * Metamorphic tests: transformations of a simulation's inputs with
 * exactly predictable effects on its outputs. These catch subtle
 * accounting or scheduling bugs that point tests miss.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

JobTrace
randomTrace(std::uint64_t seed, std::size_t count = 50)
{
    Rng rng(seed);
    std::vector<Job> jobs;
    for (std::size_t i = 0; i < count; ++i) {
        jobs.push_back({static_cast<JobId>(i),
                        rng.uniformInt(0, 2 * kSecondsPerDay),
                        rng.uniformInt(900, 10 * kSecondsPerHour),
                        static_cast<int>(rng.uniformInt(1, 4))});
    }
    return JobTrace("meta", std::move(jobs));
}

/** 24-hour periodic carbon trace (exactly time-shift invariant). */
CarbonTrace
periodicCarbon(std::size_t days)
{
    std::vector<double> values;
    for (std::size_t d = 0; d < days; ++d)
        for (int h = 0; h < 24; ++h)
            values.push_back(120.0 + 40.0 * ((h * 7) % 24));
    return CarbonTrace("periodic", std::move(values));
}

QueueConfig
queues()
{
    QueueConfig q = QueueConfig::standardShortLong();
    return q;
}

TEST(Metamorphic, HybridGreedyWithZeroReservedEqualsOnDemand)
{
    const CarbonTrace carbon = periodicCarbon(12);
    const CarbonInfoService cis(carbon);
    const JobTrace trace = randomTrace(1);
    const QueueConfig q = queues();

    for (const std::string &policy : allPolicyNames()) {
        const PolicyPtr p = makePolicy(policy);
        const SimulationResult od = testutil::runSim(
            trace, *p, q, cis, {},
            ResourceStrategy::OnDemandOnly);
        ClusterConfig zero;
        zero.reserved_cores = 0;
        const SimulationResult hybrid = testutil::runSim(
            trace, *p, q, cis, zero,
            ResourceStrategy::HybridGreedy);
        EXPECT_DOUBLE_EQ(od.carbon_kg, hybrid.carbon_kg)
            << policy;
        EXPECT_DOUBLE_EQ(od.totalCost(), hybrid.totalCost())
            << policy;
        EXPECT_DOUBLE_EQ(od.meanWaitingHours(),
                         hybrid.meanWaitingHours())
            << policy;
    }
}

TEST(Metamorphic, DoublingPowerDoublesCarbonAndEnergy)
{
    const CarbonTrace carbon = periodicCarbon(12);
    const CarbonInfoService cis(carbon);
    const JobTrace trace = randomTrace(2);
    const QueueConfig q = queues();
    const PolicyPtr p = makePolicy("Carbon-Time");

    ClusterConfig base;
    ClusterConfig doubled;
    doubled.energy.watts_per_core =
        base.energy.watts_per_core * 2.0;

    const SimulationResult a = testutil::runSim(trace, *p, q, cis, base);
    const SimulationResult b =
        testutil::runSim(trace, *p, q, cis, doubled);
    EXPECT_NEAR(b.carbon_kg, 2.0 * a.carbon_kg,
                1e-9 * a.carbon_kg);
    EXPECT_NEAR(b.energy_kwh, 2.0 * a.energy_kwh,
                1e-9 * a.energy_kwh);
    // Money and timing are power-independent.
    EXPECT_DOUBLE_EQ(a.totalCost(), b.totalCost());
    EXPECT_DOUBLE_EQ(a.meanWaitingHours(), b.meanWaitingHours());
}

TEST(Metamorphic, ScalingPricesScalesCosts)
{
    const CarbonTrace carbon = periodicCarbon(12);
    const CarbonInfoService cis(carbon);
    const JobTrace trace = randomTrace(3);
    const QueueConfig q = queues();
    const PolicyPtr p = makePolicy("Lowest-Window");

    ClusterConfig base;
    base.reserved_cores = 10;
    ClusterConfig scaled = base;
    scaled.pricing.on_demand_per_core_hour *= 3.0;

    const SimulationResult a = testutil::runSim(
        trace, *p, q, cis, base, ResourceStrategy::ReservedFirst);
    const SimulationResult b =
        testutil::runSim(trace, *p, q, cis, scaled,
                 ResourceStrategy::ReservedFirst);
    EXPECT_NEAR(b.totalCost(), 3.0 * a.totalCost(),
                1e-9 * a.totalCost());
    EXPECT_DOUBLE_EQ(a.carbon_kg, b.carbon_kg);
}

TEST(Metamorphic, DayShiftOnPeriodicGridPreservesCarbon)
{
    // Shifting every arrival by exactly 24 h on a 24-h periodic
    // grid is a symmetry: per-job carbon must be identical.
    const CarbonTrace carbon = periodicCarbon(14);
    const CarbonInfoService cis(carbon);
    const QueueConfig q = queues();
    const JobTrace trace = randomTrace(4);

    std::vector<Job> shifted_jobs;
    for (const Job &j : trace.jobs()) {
        Job s = j;
        s.submit += kSecondsPerDay;
        shifted_jobs.push_back(s);
    }
    const JobTrace shifted("meta+1d", std::move(shifted_jobs));

    for (const char *policy :
         {"Lowest-Slot", "Lowest-Window", "Carbon-Time",
          "Wait-Awhile", "Ecovisor"}) {
        const PolicyPtr p = makePolicy(policy);
        const SimulationResult a = testutil::runSim(trace, *p, q, cis);
        const SimulationResult b = testutil::runSim(shifted, *p, q, cis);
        ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
        for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
            EXPECT_NEAR(a.carbonGrams(a.outcomes[i]),
                        b.carbonGrams(b.outcomes[i]), 1e-9)
                << policy << " job " << i;
            EXPECT_EQ(a.start(a.outcomes[i]) + kSecondsPerDay,
                      b.start(b.outcomes[i]))
                << policy << " job " << i;
        }
    }
}

TEST(Metamorphic, UniformIntensityScalingScalesCarbonOnly)
{
    const CarbonTrace carbon = periodicCarbon(12);
    std::vector<double> scaled_values;
    for (double v : carbon.values())
        scaled_values.push_back(v * 2.5);
    const CarbonTrace scaled("scaled", std::move(scaled_values));

    const CarbonInfoService cis_a(carbon);
    const CarbonInfoService cis_b(scaled);
    const QueueConfig q = queues();
    const JobTrace trace = randomTrace(5);

    for (const char *policy :
         {"Lowest-Window", "Carbon-Time", "Wait-Awhile"}) {
        const PolicyPtr p = makePolicy(policy);
        const SimulationResult a =
            testutil::runSim(trace, *p, q, cis_a);
        const SimulationResult b =
            testutil::runSim(trace, *p, q, cis_b);
        // Relative structure unchanged -> identical schedules...
        EXPECT_DOUBLE_EQ(a.meanWaitingHours(),
                         b.meanWaitingHours())
            << policy;
        // ...and carbon scales exactly.
        EXPECT_NEAR(b.carbon_kg, 2.5 * a.carbon_kg,
                    1e-9 * a.carbon_kg)
            << policy;
    }
}

TEST(Metamorphic, DisjointWorkloadsCompose)
{
    // Two workloads far apart in time: simulating their union on
    // an on-demand cluster equals the sum of the parts.
    const CarbonTrace carbon = periodicCarbon(30);
    const CarbonInfoService cis(carbon);
    const QueueConfig q = queues();

    const JobTrace early = randomTrace(6, 25);
    std::vector<Job> late_jobs;
    Rng rng(7);
    for (int i = 0; i < 25; ++i) {
        late_jobs.push_back(
            {100 + i, 12 * kSecondsPerDay +
                          rng.uniformInt(0, kSecondsPerDay),
             rng.uniformInt(900, 8 * kSecondsPerHour), 1});
    }
    const JobTrace late("late", late_jobs);

    std::vector<Job> all = early.jobs();
    for (const Job &j : late.jobs())
        all.push_back(j);
    const JobTrace combined("combined", std::move(all));

    const PolicyPtr p = makePolicy("Carbon-Time");
    const SimulationResult ra = testutil::runSim(early, *p, q, cis);
    const SimulationResult rb = testutil::runSim(late, *p, q, cis);
    const SimulationResult rc = testutil::runSim(combined, *p, q, cis);
    EXPECT_NEAR(rc.carbon_kg, ra.carbon_kg + rb.carbon_kg, 1e-9);
    EXPECT_NEAR(rc.on_demand_cost,
                ra.on_demand_cost + rb.on_demand_cost, 1e-9);
}

} // namespace
} // namespace gaia
