/** @file Behavioural tests for the cluster simulator. */

#include "sim/simulator.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>

#include "core/policy_factory.h"
#include "fault/injector.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

using testutil::oneQueue;
using testutil::flatTrace;

SimulationResult
run(const JobTrace &trace, const std::string &policy,
    const QueueConfig &queues, const CarbonInfoService &cis,
    ClusterConfig cluster = {},
    ResourceStrategy strategy = ResourceStrategy::OnDemandOnly)
{
    const PolicyPtr p = makePolicy(policy);
    return testutil::runSim(trace, *p, queues, cis, cluster,
                            strategy);
}

TEST(Simulator, SingleJobClosedFormAccounting)
{
    const CarbonTrace carbon = flatTrace(100.0);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(2), 2}});

    const SimulationResult r = run(trace, "NoWait", queues, cis);
    ASSERT_EQ(r.outcomes.size(), 1u);
    const JobOutcome &o = r.outcomes[0];

    EXPECT_EQ(r.start(o), 0);
    EXPECT_EQ(r.finish(o), hours(2));
    EXPECT_EQ(r.waiting(o), 0);
    // 2 cores x 5 W = 10 W = 0.01 kW for 2 h at 100 g/kWh -> 2 g.
    EXPECT_NEAR(r.carbonGrams(o), 2.0, 1e-9);
    EXPECT_NEAR(r.carbonNowaitGrams(o), 2.0, 1e-9);
    // 4 core-hours on demand at $0.0624.
    EXPECT_NEAR(r.variableCost(o), 4 * 0.0624, 1e-9);
    EXPECT_NEAR(r.totalCost(), 4 * 0.0624, 1e-9);
    EXPECT_DOUBLE_EQ(r.reserved_upfront, 0.0);
    // 20 Wh of energy.
    EXPECT_NEAR(r.energy_kwh, 0.02, 1e-9);
    EXPECT_EQ(r.policy, "NoWait");
    EXPECT_EQ(r.strategy, "OnDemand");
}

TEST(Simulator, NoWaitCarbonMatchesCounterfactual)
{
    const CarbonTrace carbon = flatTrace(250.0);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 100, hours(1), 1},
                               {2, 5000, hours(3), 2},
                               {3, 9000, minutes(30), 4}});
    const SimulationResult r = run(trace, "NoWait", queues, cis);
    EXPECT_NEAR(r.carbon_kg, r.carbon_nowait_kg, 1e-12);
    EXPECT_DOUBLE_EQ(r.carbonSavedKg(), 0.0);
}

TEST(Simulator, AllWaitOnDemandStartsAtTheLimit)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(4));
    const JobTrace trace("t", {{1, 500, hours(1), 1}});
    const SimulationResult r =
        run(trace, "AllWait-Threshold", queues, cis);
    EXPECT_EQ(r.start(r.outcomes[0]), 500 + hours(4));
    EXPECT_EQ(r.waiting(r.outcomes[0]), hours(4));
}

TEST(Simulator, HybridGreedyPrefersReservedThenOverflows)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    // Three concurrent 1-core jobs against 2 reserved cores.
    const JobTrace trace("t", {{1, 0, hours(1), 1},
                               {2, 0, hours(1), 1},
                               {3, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 2;
    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster,
            ResourceStrategy::HybridGreedy);

    int reserved = 0, on_demand = 0;
    for (const JobOutcome &o : r.outcomes) {
        ASSERT_EQ(r.placements(o).size(), 1u);
        EXPECT_EQ(r.waiting(o), 0);
        (r.placements(o)[0].option == PurchaseOption::Reserved
             ? reserved
             : on_demand)++;
    }
    EXPECT_EQ(reserved, 2);
    EXPECT_EQ(on_demand, 1);
    EXPECT_DOUBLE_EQ(r.reserved_core_seconds, 2.0 * hours(1));
    EXPECT_DOUBLE_EQ(r.on_demand_core_seconds, 1.0 * hours(1));
    EXPECT_GT(r.reserved_upfront, 0.0);
    // Only the on-demand hour is billed as usage.
    EXPECT_NEAR(r.on_demand_cost, 0.0624, 1e-9);
}

TEST(Simulator, ReservedFirstIsWorkConserving)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    // One reserved core; job 2 arrives while job 1 occupies it and
    // must start the moment the core frees (not at submit+W).
    const JobTrace trace("t", {{1, 0, hours(1), 1},
                               {2, 600, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    const SimulationResult r =
        run(trace, "AllWait-Threshold", queues, cis, cluster,
            ResourceStrategy::ReservedFirst);

    const JobOutcome &first = r.outcomes[0];
    const JobOutcome &second = r.outcomes[1];
    EXPECT_EQ(r.start(first), 0); // immediate despite AllWait's plan
    EXPECT_EQ(r.placements(first)[0].option, PurchaseOption::Reserved);
    EXPECT_EQ(r.start(second), hours(1));
    EXPECT_EQ(r.placements(second)[0].option, PurchaseOption::Reserved);
    EXPECT_EQ(r.waiting(second), hours(1) - 600);
    EXPECT_DOUBLE_EQ(r.on_demand_core_seconds, 0.0);
}

TEST(Simulator, ReservedFirstFallsBackToOnDemandAtPlannedStart)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(1));
    // Job 1 hogs the single reserved core for 5 h; job 2's waiting
    // limit (1 h) expires first -> on-demand at submit+W.
    const JobTrace trace("t", {{1, 0, hours(5), 1},
                               {2, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    const SimulationResult r =
        run(trace, "AllWait-Threshold", queues, cis, cluster,
            ResourceStrategy::ReservedFirst);

    const JobOutcome &second = r.outcomes[1];
    EXPECT_EQ(r.start(second), hours(1));
    EXPECT_EQ(r.placements(second)[0].option, PurchaseOption::OnDemand);
}

TEST(Simulator, WorkConservationOverridesCarbonWaiting)
{
    // Expensive now, cheap later: Lowest-Slot wants to wait, but a
    // free reserved core means the job starts immediately.
    std::vector<double> hourly(24 * 40, 500.0);
    hourly[5] = 10.0;
    const CarbonTrace carbon("step", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 1;

    const SimulationResult wc =
        run(trace, "Lowest-Slot", queues, cis, cluster,
            ResourceStrategy::ReservedFirst);
    EXPECT_EQ(wc.start(wc.outcomes[0]), 0);

    const SimulationResult greedy =
        run(trace, "Lowest-Slot", queues, cis, cluster,
            ResourceStrategy::HybridGreedy);
    EXPECT_EQ(greedy.start(greedy.outcomes[0]), hours(5));
}

TEST(Simulator, SuspendResumePlacesEachSegment)
{
    // Cheap slots 1 and 3 -> Wait-Awhile splits a 2 h job.
    std::vector<double> hourly(24 * 40, 500.0);
    hourly[1] = 10.0;
    hourly[3] = 20.0;
    const CarbonTrace carbon("step", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    const SimulationResult r =
        run(trace, "Wait-Awhile", queues, cis);

    const JobOutcome &o = r.outcomes[0];
    ASSERT_EQ(r.placements(o).size(), 2u);
    EXPECT_EQ(r.placements(o)[0].start(), hours(1));
    EXPECT_EQ(r.placements(o)[1].start(), hours(3));
    EXPECT_EQ(r.finish(o), hours(4));
    EXPECT_EQ(r.waiting(o), hours(2));
    // Carbon: 0.005 kW x (10 + 20) g/kWh x 1 h each.
    EXPECT_NEAR(r.carbonGrams(o), 0.005 * 30.0, 1e-9);
}

TEST(Simulator, SuspendResumeWithReservedUsesGreedyPlacement)
{
    std::vector<double> hourly(24 * 40, 500.0);
    hourly[1] = 10.0;
    hourly[3] = 20.0;
    const CarbonTrace carbon("step", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    // Two identical Wait-Awhile jobs fight over 1 reserved core:
    // each segment pair runs one on reserved, one on demand.
    const JobTrace trace("t", {{1, 0, hours(2), 1},
                               {2, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    const SimulationResult r =
        run(trace, "Wait-Awhile", queues, cis, cluster,
            ResourceStrategy::ReservedFirst);

    EXPECT_DOUBLE_EQ(r.reserved_core_seconds, 2.0 * hours(1));
    EXPECT_DOUBLE_EQ(r.on_demand_core_seconds, 2.0 * hours(1));
}

TEST(Simulator, AccountingConservation)
{
    const CarbonTrace carbon = flatTrace(300.0);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    std::vector<Job> jobs;
    for (int i = 0; i < 40; ++i)
        jobs.push_back({i, i * 500, hours(1) + i * 60,
                        1 + i % 3});
    const JobTrace trace("t", std::move(jobs));
    ClusterConfig cluster;
    cluster.reserved_cores = 3;
    const SimulationResult r =
        run(trace, "Carbon-Time", queues, cis, cluster,
            ResourceStrategy::ReservedFirst);

    double sum_cost = 0.0, sum_carbon = 0.0;
    for (const JobOutcome &o : r.outcomes) {
        sum_cost += r.variableCost(o);
        sum_carbon += r.carbonGrams(o);
    }
    EXPECT_NEAR(sum_cost, r.on_demand_cost + r.spot_cost, 1e-6);
    EXPECT_NEAR(sum_carbon / 1000.0, r.carbon_kg, 1e-9);
    EXPECT_LE(r.reserved_core_seconds,
              3.0 * static_cast<double>(r.horizon) + 1e-6);
    EXPECT_GE(r.reserved_utilization, 0.0);
    EXPECT_LE(r.reserved_utilization, 1.0);
}

TEST(Simulator, DeterministicAcrossRuns)
{
    const CarbonTrace carbon = flatTrace(120.0);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(3));
    std::vector<Job> jobs;
    for (int i = 0; i < 25; ++i)
        jobs.push_back({i, i * 777, 1000 + i * 333, 1 + i % 4});
    const JobTrace trace("t", std::move(jobs));
    ClusterConfig cluster;
    cluster.reserved_cores = 4;

    const SimulationResult a =
        run(trace, "Lowest-Window", queues, cis, cluster,
            ResourceStrategy::ReservedFirst);
    const SimulationResult b =
        run(trace, "Lowest-Window", queues, cis, cluster,
            ResourceStrategy::ReservedFirst);
    EXPECT_DOUBLE_EQ(a.totalCost(), b.totalCost());
    EXPECT_DOUBLE_EQ(a.carbon_kg, b.carbon_kg);
    ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
    for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
        EXPECT_EQ(a.start(a.outcomes[i]), b.start(b.outcomes[i]));
        EXPECT_EQ(a.finish(a.outcomes[i]), b.finish(b.outcomes[i]));
    }
}

TEST(Simulator, ExplicitHorizonOverridesDefault)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(0);
    const JobTrace trace("t", {{1, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 2;
    cluster.reservation_horizon = 10 * kSecondsPerDay;
    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster,
            ResourceStrategy::HybridGreedy);
    EXPECT_EQ(r.horizon, 10 * kSecondsPerDay);
    const PricingModel pricing;
    EXPECT_NEAR(r.reserved_upfront,
                pricing.reservedUpfront(2, 10 * kSecondsPerDay),
                1e-9);
}

TEST(Simulator, ReservedUtilizationCountsOnlyTheHorizon)
{
    // A 3 h reserved job outlasts a 2 h reservation of one core. The
    // usage split keeps all 3 core-hours, but the pool can be busy
    // for only the 2 h it is reserved, so its utilization is 1, not
    // 1.5.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const JobTrace trace("t", {{1, 0, hours(3), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    cluster.reservation_horizon = hours(2);
    const SimulationResult r =
        run(trace, "NoWait", oneQueue(0), cis, cluster,
            ResourceStrategy::ReservedFirst);
    ASSERT_EQ(r.placements(r.outcomes[0]).size(), 1u);
    EXPECT_EQ(r.placements(r.outcomes[0])[0].option,
              PurchaseOption::Reserved);
    EXPECT_DOUBLE_EQ(r.reserved_core_seconds, 3.0 * 3600.0);
    EXPECT_DOUBLE_EQ(r.reserved_utilization, 1.0);

    // A slice that starts past the horizon adds nothing.
    const JobTrace late("t", {{1, 0, hours(1), 1}, {2, hours(3),
                                                    hours(1), 1}});
    const SimulationResult l =
        run(late, "NoWait", oneQueue(0), cis, cluster,
            ResourceStrategy::ReservedFirst);
    EXPECT_DOUBLE_EQ(l.reserved_core_seconds, 2.0 * 3600.0);
    EXPECT_DOUBLE_EQ(l.reserved_utilization, 0.5);
}

TEST(Simulator, EmptyTraceProducesEmptyResult)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(1));
    const JobTrace trace("t", {});
    const SimulationResult r = run(trace, "NoWait", queues, cis);
    EXPECT_TRUE(r.outcomes.empty());
    EXPECT_DOUBLE_EQ(r.totalCost(), 0.0);
}

TEST(Simulator, PerJobColumnsExistOnlyWhenAJobHasAnEntry)
{
    // In the paper's setting every job's eviction count and arrival
    // delay are 0, so neither column is allocated: not for an
    // on-demand run without faults, nor for a spot run at a zero
    // eviction rate. One eviction, or a delay fault, creates its
    // column with an entry for every outcome.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    std::vector<Job> jobs;
    for (int i = 0; i < 12; ++i)
        jobs.push_back({i + 1, i * 600, i == 0 ? hours(1) : hours(5), 1});
    const JobTrace trace("t", std::move(jobs));

    const SimulationResult on_demand =
        run(trace, "Carbon-Time", queues, cis);
    EXPECT_TRUE(on_demand.job_evictions.empty());
    EXPECT_TRUE(on_demand.arrival_delays.empty());

    ClusterConfig spot;
    spot.spot_eviction_rate = 0.0;
    spot.spot_max_length = hours(24);
    const SimulationResult calm = run(trace, "Carbon-Time", queues, cis,
                                      spot, ResourceStrategy::SpotFirst);
    EXPECT_GT(calm.spot_core_seconds, 0.0);
    EXPECT_TRUE(calm.job_evictions.empty());
    EXPECT_TRUE(calm.arrival_delays.empty());

    // Only the first job is short enough for spot, and a certain
    // eviction revokes it at once; it restarts on demand.
    spot.spot_eviction_rate = 1.0;
    spot.spot_max_length = hours(2);
    const SimulationResult evicted = run(trace, "Carbon-Time", queues,
                                         cis, spot,
                                         ResourceStrategy::SpotFirst);
    EXPECT_EQ(evicted.eviction_count, 1u);
    ASSERT_EQ(evicted.job_evictions.size(), evicted.outcomes.size());
    EXPECT_EQ(evicted.evictions(evicted.outcomes[0]), 1);
    for (std::size_t i = 1; i < evicted.outcomes.size(); ++i)
        EXPECT_EQ(evicted.evictions(evicted.outcomes[i]), 0) << i;
    EXPECT_TRUE(evicted.arrival_delays.empty());
    EXPECT_EQ(checkColumns(evicted).message(), "");

    // A delay fault holds some jobs back by 20 minutes; the others
    // read 0 from the same column.
    FaultSpec delays;
    delays.delay_rate = 0.3;
    delays.delay_duration = minutes(20);
    const FaultInjector injector(delays);
    const PolicyPtr policy = makePolicy("Carbon-Time");
    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = policy.get();
    setup.queues = &queues;
    setup.cis = &cis;
    setup.faults = &injector;
    const SimulationResult delayed = simulateChecked(setup).value();
    ASSERT_EQ(delayed.arrival_delays.size(), delayed.outcomes.size());
    std::size_t late = 0;
    for (const JobOutcome &o : delayed.outcomes) {
        const JobId id = delayed.job(o).id;
        const bool held =
            injector.delayedStart(static_cast<std::uint64_t>(id));
        late += held ? 1 : 0;
        EXPECT_EQ(delayed.arrivalDelay(o), held ? minutes(20) : 0)
            << "job " << id;
    }
    EXPECT_GT(late, 0u);
    EXPECT_LT(late, delayed.outcomes.size());
    EXPECT_TRUE(delayed.job_evictions.empty());
    EXPECT_EQ(checkColumns(delayed).message(), "");
}

TEST(Simulator, RecycledOutcomeStorageMatchesAFreshRun)
{
    // Wait-Awhile splits jobs across the cheap odd hours and spot
    // evictions add lost segments, so many jobs record more than two
    // segments; delayed starts fill the arrival-delay column.
    std::vector<double> hourly(24 * 40);
    for (std::size_t h = 0; h < hourly.size(); ++h)
        hourly[h] = h % 2 == 0 ? 400.0 : 40.0 + static_cast<double>(h % 7);
    const CarbonTrace carbon("alternating", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(12));
    std::vector<Job> jobs;
    for (int i = 0; i < 40; ++i)
        jobs.push_back({i, i * 1500, minutes(60 + 3 * i), 1 + i % 2});
    const JobTrace trace("t", std::move(jobs));
    const PolicyPtr policy = makePolicy("Wait-Awhile");
    ClusterConfig cluster;
    cluster.reserved_cores = 2;
    cluster.spot_eviction_rate = 0.5;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    FaultSpec delays;
    delays.delay_rate = 0.3;
    const FaultInjector injector(delays);
    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = policy.get();
    setup.queues = &queues;
    setup.cis = &cis;
    setup.cluster = cluster;
    setup.strategy = ResourceStrategy::SpotReserved;
    setup.faults = &injector;

    SimulationResult fresh = simulateChecked(setup).value();
    const std::uint64_t expected = resultFingerprint(fresh);
    ASSERT_TRUE(std::any_of(
        fresh.outcomes.begin(), fresh.outcomes.end(),
        [&fresh](const JobOutcome &o) {
            return fresh.placements(o).size() > 2;
        }));

    // Every column of the result that run filled is refilled in
    // place; the run places no gang and no start past 2^32 s.
    const testutil::HeldColumns held = testutil::heldColumns(fresh);
    ASSERT_EQ(held.size(), 6u);
    EXPECT_EQ(held[2].first, "segment_options");
    EXPECT_EQ(held[3].first, "segment_durations");
    const JobOutcome *outcomes = fresh.outcomes.data();
    const std::uint32_t *starts = fresh.segment_starts.data();
    const PurchaseOption *options = fresh.segment_options.data();
    const std::uint32_t *durations = fresh.segment_durations.data();
    const std::uint8_t *eviction_column = fresh.job_evictions.data();
    const std::uint32_t *delay_column = fresh.arrival_delays.data();
    const SimulationResult recycled =
        simulateChecked(setup, std::move(fresh)).value();
    EXPECT_EQ(resultFingerprint(recycled), expected);
    EXPECT_EQ(testutil::heldColumns(recycled), held);
    EXPECT_EQ(recycled.outcomes.data(), outcomes);
    EXPECT_EQ(recycled.segment_starts.data(), starts);
    EXPECT_EQ(recycled.segment_options.data(), options);
    EXPECT_EQ(recycled.segment_durations.data(), durations);
    EXPECT_EQ(recycled.job_evictions.data(), eviction_column);
    EXPECT_EQ(recycled.arrival_delays.data(), delay_column);

    // Storage with too little capacity grows like fresh columns.
    SimulationResult small;
    small.outcomes.assign(recycled.outcomes.begin(),
                          recycled.outcomes.begin() + 3);
    small.segment_starts.assign(recycled.segment_starts.begin(),
                                recycled.segment_starts.begin() + 3);
    small.segment_durations.assign(3, 1);
    small.outcomes.shrink_to_fit();
    small.segment_starts.shrink_to_fit();
    small.segment_durations.shrink_to_fit();
    EXPECT_EQ(resultFingerprint(
                  simulateChecked(setup, std::move(small)).value()),
              expected);
}

TEST(SimulatorDeath, OnDemandOnlyWithReservedCoresIsFatal)
{
    // The test helper treats an invalid setup as a test bug and
    // dies with simulateChecked()'s Status; the inconsistency named
    // there must survive into the message.
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(1));
    const JobTrace trace("t", {{1, 0, 100, 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 5;
    EXPECT_DEATH(run(trace, "NoWait", queues, cis, cluster,
                     ResourceStrategy::OnDemandOnly),
                 "OnDemandOnly strategy with 5 reserved");
}

TEST(SimulatorChecked, RejectsEachMissingInput)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(1));
    const JobTrace trace("t", {{1, 0, 100, 1}});
    const PolicyPtr policy = makePolicy("NoWait");

    SimulationSetup complete;
    complete.trace = &trace;
    complete.policy = policy.get();
    complete.queues = &queues;
    complete.cis = &cis;
    ASSERT_TRUE(simulateChecked(complete).isOk());

    const auto expectRejected = [&](SimulationSetup setup,
                                    const std::string &needle) {
        const Result<SimulationResult> result =
            simulateChecked(setup);
        ASSERT_FALSE(result.isOk());
        EXPECT_EQ(result.status().code(),
                  ErrorCode::InvalidArgument);
        EXPECT_NE(result.status().message().find(needle),
                  std::string::npos)
            << result.status().message();
    };

    SimulationSetup no_trace = complete;
    no_trace.trace = nullptr;
    expectRejected(no_trace, "no job trace");

    SimulationSetup no_policy = complete;
    no_policy.policy = nullptr;
    expectRejected(no_policy, "no policy");

    SimulationSetup no_queues = complete;
    no_queues.queues = nullptr;
    expectRejected(no_queues, "no queue configuration");

    SimulationSetup no_cis = complete;
    no_cis.cis = nullptr;
    expectRejected(no_cis, "no carbon source");
}

TEST(SimulatorChecked, RejectsMismatchedHorizons)
{
    // Carbon trace shorter than the last job arrival: the checked
    // entry point reports the mismatch instead of asserting deep
    // inside the scheduler.
    const CarbonTrace carbon = flatTrace(100.0, 2);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(1));
    const JobTrace trace("t", {{1, hours(100), 100, 1}});
    const PolicyPtr policy = makePolicy("NoWait");

    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = policy.get();
    setup.queues = &queues;
    setup.cis = &cis;
    const Result<SimulationResult> result = simulateChecked(setup);
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().message().find("horizons"),
              std::string::npos)
        << result.status().message();
}

TEST(SimulatorChecked, InvalidClusterConfigIsAStatus)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(1));
    const JobTrace trace("t", {{1, 0, 100, 1}});
    const PolicyPtr policy = makePolicy("NoWait");

    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = policy.get();
    setup.queues = &queues;
    setup.cis = &cis;
    setup.cluster.reserved_cores = 5;
    setup.strategy = ResourceStrategy::OnDemandOnly;
    const Result<SimulationResult> result = simulateChecked(setup);
    ASSERT_FALSE(result.isOk());
    EXPECT_NE(result.status().message().find("reserved"),
              std::string::npos)
        << result.status().message();
}

} // namespace
} // namespace gaia
