/** @file Tests for the spatial-shifting extension. */

#include "core/spatial.h"

#include <gtest/gtest.h>

#include "core/policies.h"
#include "trace/region_model.h"

namespace gaia {
namespace {

TEST(Spatial, PicksTheCleanerRegion)
{
    const CarbonTrace dirty("dirty",
                            std::vector<double>(48, 800.0));
    const CarbonTrace clean("clean",
                            std::vector<double>(48, 50.0));
    const CarbonInfoService cis_dirty(dirty);
    const CarbonInfoService cis_clean(clean);
    const NoWaitPolicy policy;
    const QueueConfig queues = QueueConfig::standardShortLong();
    const SpatialPlanner planner({&cis_dirty, &cis_clean}, policy,
                                 queues);

    const Job job{1, 1000, hours(2), 1};
    const SpatialAssignment a = planner.assign(job);
    EXPECT_EQ(a.region_index, 1u);
    EXPECT_EQ(a.plan.plannedStart(), 1000);
}

TEST(Spatial, TiesResolveToFirstRegion)
{
    const CarbonTrace a("a", std::vector<double>(48, 100.0));
    const CarbonTrace b("b", std::vector<double>(48, 100.0));
    const CarbonInfoService cis_a(a);
    const CarbonInfoService cis_b(b);
    const NoWaitPolicy policy;
    const QueueConfig queues = QueueConfig::standardShortLong();
    const SpatialPlanner planner({&cis_a, &cis_b}, policy, queues);

    EXPECT_EQ(planner.assign({1, 0, hours(1), 1}).region_index,
              0u);
}

TEST(Spatial, JointSpatioTemporalBeatsEitherAlone)
{
    // Region A is cheap now, region B cheap later; a job arriving
    // now should run in A immediately under NoWait but may do even
    // better with a temporal policy in whichever region wins.
    std::vector<double> a_vals(48, 300.0);
    a_vals[0] = 100.0;
    std::vector<double> b_vals(48, 300.0);
    b_vals[3] = 20.0;
    const CarbonTrace a("a", a_vals);
    const CarbonTrace b("b", b_vals);
    const CarbonInfoService cis_a(a);
    const CarbonInfoService cis_b(b);
    const QueueConfig queues = QueueConfig::standardShortLong();

    const NoWaitPolicy nowait;
    const SpatialPlanner spatial_only({&cis_a, &cis_b}, nowait,
                                      queues);
    const Job job{1, 0, hours(1), 1};
    EXPECT_EQ(spatial_only.assign(job).region_index, 0u);

    const LowestSlotPolicy lowest;
    const SpatialPlanner joint({&cis_a, &cis_b}, lowest, queues);
    const SpatialAssignment best = joint.assign(job);
    EXPECT_EQ(best.region_index, 1u); // waits for B's 20 g slot
    EXPECT_EQ(best.plan.plannedStart(), hours(3));
}

TEST(Spatial, PartitionCoversEveryJobExactlyOnce)
{
    const CarbonTrace t1 =
        makeRegionTrace(Region::KentuckyUS, 24 * 10, 1);
    const CarbonTrace t2 =
        makeRegionTrace(Region::SouthAustralia, 24 * 10, 1);
    const CarbonTrace t3 =
        makeRegionTrace(Region::OntarioCanada, 24 * 10, 1);
    const CarbonInfoService c1(t1), c2(t2), c3(t3);
    const CarbonTimePolicy policy;
    QueueConfig queues = QueueConfig::standardShortLong();

    std::vector<Job> jobs;
    for (int i = 0; i < 60; ++i)
        jobs.push_back({i, i * 3000, 1800 + i * 600, 1 + i % 3});
    const JobTrace trace("t", std::move(jobs));
    queues.calibrateAverages(trace);

    const SpatialPlanner planner({&c1, &c2, &c3}, policy, queues);
    const SpatialPartition partition = planner.partition(trace);

    ASSERT_EQ(partition.region_traces.size(), 3u);
    ASSERT_EQ(partition.assignments.size(), trace.jobCount());
    std::size_t total = 0;
    for (const JobTrace &rt : partition.region_traces)
        total += rt.jobCount();
    EXPECT_EQ(total, trace.jobCount());

    // Assignments agree with the sub-trace contents.
    std::vector<std::size_t> counts(3, 0);
    for (const SpatialAssignment &a : partition.assignments)
        ++counts[a.region_index];
    for (std::size_t r = 0; r < 3; ++r)
        EXPECT_EQ(counts[r], partition.region_traces[r].jobCount());

    // Coal-heavy Kentucky should attract almost nothing when
    // cleaner regions are on offer.
    EXPECT_LT(partition.region_traces[0].jobCount(),
              trace.jobCount() / 4);
}

TEST(Spatial, SingleRegionDegeneratesToTemporal)
{
    const CarbonTrace t =
        makeRegionTrace(Region::CaliforniaUS, 24 * 10, 2);
    const CarbonInfoService cis(t);
    const CarbonTimePolicy policy;
    QueueConfig queues = QueueConfig::standardShortLong();
    const SpatialPlanner planner({&cis}, policy, queues);

    const Job job{1, 5000, hours(3), 2};
    const QueueSpec &queue = queues.queueFor(job.length);
    PlanContext ctx{job.submit, &cis, &queue};
    const SchedulePlan direct = policy.plan(job, ctx);
    const SpatialAssignment via = planner.assign(job);
    EXPECT_EQ(via.region_index, 0u);
    EXPECT_EQ(via.plan.toString(), direct.toString());
}

TEST(Spatial, PlansAHintedJobInItsHintedQueue)
{
    // The engine runs a job in queueForJob(job), which honours its
    // queue hint, so the planner must choose the region under the
    // same waiting bound. Here the short queue's 6 h window misses
    // the hour-12 dip, and the hinted long queue's 24 h reaches it.
    std::vector<double> hourly(48, 500.0);
    hourly[12] = 10.0;
    const CarbonTrace trace("dip", hourly);
    const CarbonInfoService cis(trace);
    const LowestSlotPolicy policy;
    const QueueConfig queues = QueueConfig::standardShortLong();
    const SpatialPlanner planner({&cis}, policy, queues);

    Job job{1, 0, hours(1), 1};
    job.queue_hint = 1;
    const QueueSpec &queue = queues.queueForJob(job);
    ASSERT_EQ(queue.max_wait, hours(24));
    const PlanContext ctx{job.submit, &cis, &queue};
    EXPECT_EQ(policy.plan(job, ctx).plannedStart(), hours(12));
    EXPECT_EQ(planner.assign(job).plan.plannedStart(), hours(12));
}

TEST(SpatialDeath, NoRegionsIsFatal)
{
    const NoWaitPolicy policy;
    const QueueConfig queues = QueueConfig::standardShortLong();
    EXPECT_EXIT(SpatialPlanner({}, policy, queues),
                ::testing::ExitedWithCode(1),
                "at least one region");
}

} // namespace
} // namespace gaia
