/** @file Cross-policy/strategy invariant sweeps for the simulator. */

#include <gtest/gtest.h>

#include <map>

#include "common/rng.h"
#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"
#include "trace/region_model.h"

namespace gaia {
namespace {

JobTrace
randomTrace(std::uint64_t seed, std::size_t count = 60)
{
    Rng rng(seed);
    std::vector<Job> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Job j;
        j.id = static_cast<JobId>(i);
        j.submit = rng.uniformInt(0, 4 * kSecondsPerDay);
        j.length = rng.uniformInt(10 * kSecondsPerMinute,
                                  18 * kSecondsPerHour);
        j.cpus = static_cast<int>(rng.uniformInt(1, 6));
        jobs.push_back(j);
    }
    return JobTrace("random", std::move(jobs));
}

using Case = std::tuple<std::string, ResourceStrategy>;

class SimInvariants : public ::testing::TestWithParam<Case>
{
  public:
    static std::string
    caseName(const ::testing::TestParamInfo<Case> &info)
    {
        std::string name = std::get<0>(info.param) + "_" +
                           strategyName(std::get<1>(info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    }
};

TEST_P(SimInvariants, EveryRunSatisfiesGlobalInvariants)
{
    const auto &[policy_name, strategy] = GetParam();
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 14, 21);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(42);
    queues.calibrateAverages(trace);

    ClusterConfig cluster;
    cluster.reserved_cores =
        strategy == ResourceStrategy::OnDemandOnly ? 0 : 20;
    cluster.spot_eviction_rate = 0.1;

    const PolicyPtr policy = makePolicy(policy_name);
    const SimulationResult r =
        testutil::runSim(trace, *policy, queues, cis, cluster, strategy);

    ASSERT_EQ(r.outcomes.size(), trace.jobCount());

    double variable = 0.0, carbon_g = 0.0;
    for (const JobOutcome &o : r.outcomes) {
        // Useful work equals the job length.
        Seconds useful = 0;
        for (const PlacedSegment &seg : r.placements(o)) {
            EXPECT_GT(seg.end(), seg.start);
            if (!seg.lost)
                useful += seg.duration();
        }
        EXPECT_EQ(useful, o.length);
        EXPECT_GE(r.waiting(o), 0);
        EXPECT_GE(r.start(o), o.submit);

        // Execution begins within the queue's waiting bound for
        // every non-suspend-resume policy (suspend-resume plans
        // bound total waiting instead; evictions may extend
        // completions but never the first start).
        const QueueSpec &queue = queues.queueFor(o.length);
        EXPECT_LE(r.start(o), o.submit + queue.max_wait)
            << "job " << o.id;

        variable += r.variableCost(o);
        carbon_g += o.carbon_g;

        // Recompute carbon from segments independently.
        double expected_carbon = 0.0;
        for (const PlacedSegment &seg : r.placements(o)) {
            expected_carbon += carbon.gramsFor(
                seg.start, seg.end(),
                cluster.energy.kilowatts(o.cpus));
        }
        EXPECT_NEAR(o.carbon_g, expected_carbon, 1e-6);
    }

    // Cluster books match per-job books.
    EXPECT_NEAR(variable, r.on_demand_cost + r.spot_cost, 1e-6);
    EXPECT_NEAR(carbon_g / 1000.0, r.carbon_kg, 1e-9);

    // Usage split is exhaustive.
    double placed = 0.0;
    for (const JobOutcome &o : r.outcomes)
        for (const PlacedSegment &seg : r.placements(o))
            placed += static_cast<double>(seg.duration()) * o.cpus;
    EXPECT_NEAR(placed,
                r.reserved_core_seconds + r.on_demand_core_seconds +
                    r.spot_core_seconds,
                1e-6);

    // The reserved pool is never oversubscribed at any instant.
    if (cluster.reserved_cores > 0) {
        std::map<Seconds, int> deltas;
        for (const JobOutcome &o : r.outcomes) {
            for (const PlacedSegment &seg : r.placements(o)) {
                if (seg.option != PurchaseOption::Reserved)
                    continue;
                deltas[seg.start] += o.cpus;
                deltas[seg.end()] -= o.cpus;
            }
        }
        int in_use = 0;
        for (const auto &[t, d] : deltas) {
            in_use += d;
            EXPECT_LE(in_use, cluster.reserved_cores)
                << "oversubscribed at t=" << t;
        }
        EXPECT_EQ(in_use, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyStrategyMatrix, SimInvariants,
    ::testing::Combine(
        ::testing::Values("NoWait", "AllWait-Threshold",
                          "Wait-Awhile", "Ecovisor", "Lowest-Slot",
                          "Lowest-Window", "Carbon-Time"),
        ::testing::Values(ResourceStrategy::OnDemandOnly,
                          ResourceStrategy::HybridGreedy,
                          ResourceStrategy::ReservedFirst,
                          ResourceStrategy::SpotFirst,
                          ResourceStrategy::SpotReserved)),
    SimInvariants::caseName);

TEST(SimProperties, WaitingShrinksWithReservedCapacity)
{
    // Paper §4.2.3: "increasing the reserved instances for a
    // work-conserving policy always reduces waiting time."
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 14, 23);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(7, 120);
    queues.calibrateAverages(trace);
    const PolicyPtr policy = makePolicy("Carbon-Time");

    double previous_wait = 1e18;
    for (int reserved : {0, 5, 15, 40, 120}) {
        ClusterConfig cluster;
        cluster.reserved_cores = reserved;
        const SimulationResult r =
            testutil::runSim(trace, *policy, queues, cis, cluster,
                     ResourceStrategy::ReservedFirst);
        EXPECT_LE(r.meanWaitingHours(), previous_wait + 1e-9)
            << "R=" << reserved;
        previous_wait = r.meanWaitingHours();
    }
}

TEST(SimProperties, NoWaitIgnoresWaitingLimits)
{
    const CarbonTrace carbon =
        makeRegionTrace(Region::CaliforniaUS, 24 * 14, 29);
    const CarbonInfoService cis(carbon);
    const JobTrace trace = randomTrace(11);
    const PolicyPtr policy = makePolicy("NoWait");

    const QueueConfig q1 = QueueConfig::standardShortLong(
        kSecondsPerHour, 2 * kSecondsPerHour);
    const QueueConfig q2 = QueueConfig::standardShortLong(
        12 * kSecondsPerHour, 48 * kSecondsPerHour);
    const SimulationResult a =
        testutil::runSim(trace, *policy, q1, cis);
    const SimulationResult b =
        testutil::runSim(trace, *policy, q2, cis);
    EXPECT_DOUBLE_EQ(a.carbon_kg, b.carbon_kg);
    EXPECT_DOUBLE_EQ(a.on_demand_cost, b.on_demand_cost);
    EXPECT_DOUBLE_EQ(a.meanWaitingHours(), 0.0);
    EXPECT_DOUBLE_EQ(b.meanWaitingHours(), 0.0);
}

TEST(SimProperties, CarbonAwarePoliciesSaveCarbonOnVariableGrids)
{
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 20, 31);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(13, 150);
    queues.calibrateAverages(trace);

    const double base =
        testutil::runSim(trace, *makePolicy("NoWait"), queues, cis)
            .carbon_kg;
    for (const char *name :
         {"Lowest-Slot", "Lowest-Window", "Carbon-Time",
          "Wait-Awhile", "Ecovisor"}) {
        const double c =
            testutil::runSim(trace, *makePolicy(name), queues, cis)
                .carbon_kg;
        EXPECT_LT(c, base) << name;
    }
}

TEST(SimProperties, EvictionStormStillCompletesEveryJob)
{
    // Failure injection: 100% hourly eviction with spot enabled for
    // everything short; all jobs must still finish exactly once.
    const CarbonTrace carbon =
        makeRegionTrace(Region::OntarioCanada, 24 * 14, 37);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(17, 100);
    queues.calibrateAverages(trace);

    ClusterConfig cluster;
    cluster.reserved_cores = 4;
    cluster.spot_eviction_rate = 1.0;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    const SimulationResult r =
        testutil::runSim(trace, *makePolicy("Carbon-Time"), queues, cis,
                 cluster, ResourceStrategy::SpotReserved);
    ASSERT_EQ(r.outcomes.size(), trace.jobCount());
    std::size_t spot_jobs = 0;
    for (const JobOutcome &o : r.outcomes) {
        if (o.length <= cluster.spot_max_length) {
            ++spot_jobs;
            EXPECT_EQ(o.evictions, 1);
        } else {
            EXPECT_EQ(o.evictions, 0);
        }
    }
    EXPECT_EQ(r.eviction_count, spot_jobs);
    EXPECT_GT(spot_jobs, 0u);
}

} // namespace
} // namespace gaia
