/** @file Spot-instance behaviour tests for the simulator. */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

using testutil::oneQueue;
using testutil::flatTrace;

SimulationResult
run(const JobTrace &trace, const std::string &policy,
    const QueueConfig &queues, const CarbonInfoService &cis,
    ClusterConfig cluster,
    ResourceStrategy strategy = ResourceStrategy::SpotFirst)
{
    const PolicyPtr p = makePolicy(policy);
    return testutil::runSim(trace, *p, queues, cis, cluster, strategy);
}

TEST(SimulatorSpot, ZeroEvictionRunsShortJobsOnSpot)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(1), 2}});
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    cluster.spot_eviction_rate = 0.0;

    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster);
    const JobOutcome &o = r.outcomes[0];
    ASSERT_EQ(r.placements(o).size(), 1u);
    EXPECT_EQ(r.placements(o)[0].option, PurchaseOption::Spot);
    EXPECT_EQ(r.lostSlices(o), 0u);
    EXPECT_EQ(r.evictions(o), 0);
    // 2 core-hours at 20% of $0.0624.
    EXPECT_NEAR(r.spot_cost, 2 * 0.0624 * 0.2, 1e-9);
    EXPECT_DOUBLE_EQ(r.on_demand_cost, 0.0);
}

TEST(SimulatorSpot, LongJobsBypassSpot)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(5), 1}});
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;

    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster);
    EXPECT_EQ(r.placements(r.outcomes[0])[0].option,
              PurchaseOption::OnDemand);
    EXPECT_DOUBLE_EQ(r.spot_cost, 0.0);
}

TEST(SimulatorSpot, ZeroSpotBoundDisablesSpotEntirely)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, minutes(30), 1}});
    ClusterConfig cluster;
    cluster.spot_max_length = 0;
    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster);
    EXPECT_EQ(r.placements(r.outcomes[0])[0].option,
              PurchaseOption::OnDemand);
}

TEST(SimulatorSpot, CertainEvictionRestartsOnDemand)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    cluster.spot_eviction_rate = 1.0; // evicted within the hour

    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster);
    const JobOutcome &o = r.outcomes[0];
    EXPECT_EQ(r.evictions(o), 1);
    EXPECT_EQ(r.eviction_count, 1u);

    ASSERT_GE(r.placements(o).size(), 1u);
    // Depending on the sampled offset there may be no recorded
    // lost slice (offset 0), but the final segment is always a
    // full-length on-demand run.
    const PlacedSegment &final = r.placements(o).back();
    EXPECT_EQ(final.option, PurchaseOption::OnDemand);
    EXPECT_EQ(final.duration(), hours(2));
    EXPECT_EQ(r.lostSlices(o), r.placements(o).size() - 1);
    if (r.placements(o).size() == 2u) {
        EXPECT_EQ(r.placements(o)[0].option, PurchaseOption::Spot);
        EXPECT_LT(r.placements(o)[0].duration(), kSecondsPerHour);
        EXPECT_GT(r.lostCoreSeconds(o), 0.0);
    }
    // Completion = eviction offset + a fresh full run.
    EXPECT_EQ(r.finish(o) - r.start(o) - r.lostCoreSeconds(o), hours(2));
    EXPECT_GE(r.waiting(o), 0);
}

TEST(SimulatorSpot, EvictionCostsMoreThanCleanRun)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;

    cluster.spot_eviction_rate = 0.0;
    const double clean =
        run(trace, "NoWait", queues, cis, cluster).totalCost();
    cluster.spot_eviction_rate = 1.0;
    const double evicted =
        run(trace, "NoWait", queues, cis, cluster).totalCost();
    EXPECT_GT(evicted, clean);
}

TEST(SimulatorSpot, RestartPrefersFreeReservedCores)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 2;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    cluster.spot_eviction_rate = 1.0;

    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster,
            ResourceStrategy::SpotReserved);
    const PlacedSegment &final = r.placements(r.outcomes[0]).back();
    EXPECT_EQ(final.option, PurchaseOption::Reserved);
    EXPECT_EQ(final.duration(), hours(2));
}

TEST(SimulatorSpot, SpotReservedRoutesLongJobsWorkConserving)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(5), 1},   // long
                               {2, 0, hours(1), 1}}); // short
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    cluster.spot_max_length = 2 * kSecondsPerHour;

    const SimulationResult r =
        run(trace, "AllWait-Threshold", queues, cis, cluster,
            ResourceStrategy::SpotReserved);
    // Long job grabs the reserved core immediately.
    EXPECT_EQ(r.placements(r.outcomes[0])[0].option,
              PurchaseOption::Reserved);
    EXPECT_EQ(r.start(r.outcomes[0]), 0);
    // Short job goes to spot at its planned start.
    EXPECT_EQ(r.placements(r.outcomes[1])[0].option,
              PurchaseOption::Spot);
}

TEST(SimulatorSpot, MultiSegmentSpotPlanSurvivesWithoutEvictions)
{
    std::vector<double> hourly(24 * 40, 500.0);
    hourly[1] = 10.0;
    hourly[3] = 20.0;
    const CarbonTrace carbon("step", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;

    const SimulationResult r =
        run(trace, "Wait-Awhile", queues, cis, cluster);
    const JobOutcome &o = r.outcomes[0];
    ASSERT_EQ(r.placements(o).size(), 2u);
    EXPECT_EQ(r.lostSlices(o), 0u);
    for (const PlacedSegment &seg : r.placements(o))
        EXPECT_EQ(seg.option, PurchaseOption::Spot);
}

TEST(SimulatorSpot, MultiSegmentEvictionAbortsAndRestarts)
{
    std::vector<double> hourly(24 * 40, 500.0);
    hourly[1] = 10.0;
    hourly[3] = 20.0;
    const CarbonTrace carbon("step", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    cluster.spot_eviction_rate = 1.0;

    const SimulationResult r =
        run(trace, "Wait-Awhile", queues, cis, cluster);
    const JobOutcome &o = r.outcomes[0];
    EXPECT_EQ(r.evictions(o), 1);
    const PlacedSegment &final = r.placements(o).back();
    EXPECT_EQ(final.option, PurchaseOption::OnDemand);
    EXPECT_EQ(final.duration(), hours(2)); // full restart
    // Every earlier slice ran on spot and is lost.
    EXPECT_EQ(r.lostSlices(o), r.placements(o).size() - 1);
    for (std::size_t i = 0; i + 1 < r.placements(o).size(); ++i)
        EXPECT_EQ(r.placements(o)[i].option, PurchaseOption::Spot);
}

TEST(SimulatorSpot, EvictionSamplingIsSeedDeterministic)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    std::vector<Job> jobs;
    for (int i = 0; i < 30; ++i)
        jobs.push_back({i, i * 1000, hours(1), 1});
    const JobTrace trace("t", std::move(jobs));
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    cluster.spot_eviction_rate = 0.3;
    cluster.seed = 77;

    const SimulationResult a =
        run(trace, "NoWait", queues, cis, cluster);
    const SimulationResult b =
        run(trace, "NoWait", queues, cis, cluster);
    EXPECT_EQ(a.eviction_count, b.eviction_count);
    EXPECT_DOUBLE_EQ(a.totalCost(), b.totalCost());

    cluster.seed = 78;
    const SimulationResult c =
        run(trace, "NoWait", queues, cis, cluster);
    // A different seed may (and with 30 jobs at 30%/h almost surely
    // does) shuffle eviction outcomes.
    EXPECT_TRUE(c.eviction_count != a.eviction_count ||
                c.totalCost() != a.totalCost());
}

TEST(SimulatorSpot, EvictionRateMatchesModelAcrossManyJobs)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(2));
    std::vector<Job> jobs;
    const int n = 2000;
    for (int i = 0; i < n; ++i)
        jobs.push_back({i, i * 100, hours(1), 1});
    const JobTrace trace("t", std::move(jobs));
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    cluster.spot_eviction_rate = 0.10;

    const SimulationResult r =
        run(trace, "NoWait", queues, cis, cluster);
    // One-hour jobs: eviction probability per job is exactly 10%.
    EXPECT_NEAR(static_cast<double>(r.eviction_count) / n, 0.10,
                0.02);
}

TEST(SimulatorSpot, SegmentColumnKeepsItsInvariantsUnderEvictions)
{
    // Many jobs, some evicted, interleaved with reserved placements
    // and Wait-Awhile plans split across the cheap odd hours.
    std::vector<double> hourly(24 * 40);
    for (std::size_t h = 0; h < hourly.size(); ++h)
        hourly[h] = h % 2 == 0 ? 400.0 : 40.0 + static_cast<double>(h % 7);
    const CarbonTrace carbon("alternating", hourly);
    const CarbonInfoService cis(carbon);
    std::vector<Job> jobs;
    for (int i = 0; i < 300; ++i)
        jobs.push_back({i, i * 700, minutes(30 + i % 90), 1 + i % 2});
    const JobTrace trace("t", std::move(jobs));
    ClusterConfig cluster;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    cluster.spot_eviction_rate = 0.3;
    cluster.reserved_cores = 2;

    for (const std::string policy :
         {"NoWait", "Wait-Awhile", "Carbon-Time"}) {
        const SimulationResult r =
            run(trace, policy, oneQueue(hours(12)), cis, cluster,
                ResourceStrategy::SpotReserved);
        EXPECT_EQ(checkColumns(r).message(), "") << policy;
        EXPECT_GT(r.eviction_count, 10u) << policy;
        EXPECT_GT(r.segment_starts.size(), r.outcomes.size()) << policy;
        // finalize adds lostCoreSeconds(o) only for jobs that lost a
        // slice; the others' 0.0 would not move the total's bits, so
        // it is still the sum over every job.
        double lost = 0.0;
        for (const JobOutcome &o : r.outcomes)
            lost += r.lostCoreSeconds(o);
        EXPECT_GT(lost, 0.0) << policy;
        EXPECT_EQ(lost, r.lost_core_seconds) << policy;
        if (policy != "Wait-Awhile")
            continue;
        // Some jobs finish a slice and lose the next one: the
        // eviction loses the finished slice too.
        EXPECT_TRUE(std::any_of(
            r.outcomes.begin(), r.outcomes.end(),
            [&](const JobOutcome &o) {
                return r.evictions(o) == 1 && r.lostSlices(o) > 1;
            }));
    }
}

} // namespace
} // namespace gaia
