/**
 * @file
 * Multi-queue scheduling: the paper describes two queues for ease
 * of exposition but states the policies "can be extended to an
 * arbitrary number of queues". These tests run a four-queue
 * configuration end to end.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"
#include "trace/region_model.h"

namespace gaia {
namespace {

QueueConfig
fourQueues()
{
    return QueueConfig({
        {"15min", 15 * kSecondsPerMinute, kSecondsPerHour, 0},
        {"short", 2 * kSecondsPerHour, 6 * kSecondsPerHour, 0},
        {"medium", 12 * kSecondsPerHour, 12 * kSecondsPerHour, 0},
        {"long", 3 * kSecondsPerDay, 24 * kSecondsPerHour, 0},
    });
}

JobTrace
mixedTrace(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Job> jobs;
    for (int i = 0; i < 120; ++i) {
        Job j;
        j.id = i;
        j.submit = rng.uniformInt(0, 3 * kSecondsPerDay);
        // Hit all four queues.
        switch (i % 4) {
          case 0:
            j.length = rng.uniformInt(300, 900);
            break;
          case 1:
            j.length = rng.uniformInt(1800, 7200);
            break;
          case 2:
            j.length = rng.uniformInt(3 * kSecondsPerHour,
                                      12 * kSecondsPerHour);
            break;
          default:
            j.length = rng.uniformInt(13 * kSecondsPerHour,
                                      2 * kSecondsPerDay);
            break;
        }
        j.cpus = static_cast<int>(rng.uniformInt(1, 4));
        jobs.push_back(j);
    }
    return JobTrace("mixed", std::move(jobs));
}

TEST(MultiQueue, AssignmentUsesSmallestAdmittingQueue)
{
    const QueueConfig queues = fourQueues();
    EXPECT_EQ(queues.queueFor(600).name, "15min");
    EXPECT_EQ(queues.queueFor(kSecondsPerHour).name, "short");
    EXPECT_EQ(queues.queueFor(5 * kSecondsPerHour).name, "medium");
    EXPECT_EQ(queues.queueFor(kSecondsPerDay).name, "long");
}

TEST(MultiQueue, CalibrationIsPerQueue)
{
    QueueConfig queues = fourQueues();
    const JobTrace trace = mixedTrace(3);
    queues.calibrateAverages(trace);
    for (std::size_t q = 0; q < queues.queueCount(); ++q) {
        const QueueSpec &spec = queues.queue(q);
        EXPECT_GT(spec.avg_length, 0) << spec.name;
        EXPECT_LE(spec.avg_length, spec.max_length) << spec.name;
        if (q > 0) {
            EXPECT_GT(spec.avg_length,
                      queues.queue(q - 1).avg_length);
        }
    }
}

TEST(MultiQueue, PerQueueWaitingBoundsHold)
{
    QueueConfig queues = fourQueues();
    const JobTrace trace = mixedTrace(5);
    queues.calibrateAverages(trace);
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 10, 5);
    const CarbonInfoService cis(carbon);

    for (const char *policy :
         {"Lowest-Slot", "Lowest-Window", "Carbon-Time",
          "Wait-Awhile", "Ecovisor"}) {
        const SimulationResult r = testutil::runSim(
            trace, *makePolicy(policy), queues, cis);
        for (const JobOutcome &o : r.outcomes) {
            const QueueSpec &queue = queues.queueFor(r.length(o));
            EXPECT_LE(r.start(o), r.job(o).submit + queue.max_wait)
                << policy << " job " << r.job(o).id << " in queue "
                << queue.name;
        }
    }
}

TEST(MultiQueue, FinerQueuesImproveLengthEstimates)
{
    // With four queues the J_avg estimate tracks true lengths more
    // closely, which should not hurt (and usually helps) carbon
    // for estimate-driven policies at equal waiting limits.
    const JobTrace trace = mixedTrace(7);
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 10, 7);
    const CarbonInfoService cis(carbon);

    QueueConfig coarse({
        {"short", 2 * kSecondsPerHour, 12 * kSecondsPerHour, 0},
        {"long", 3 * kSecondsPerDay, 12 * kSecondsPerHour, 0},
    });
    QueueConfig fine({
        {"15min", 15 * kSecondsPerMinute, 12 * kSecondsPerHour, 0},
        {"short", 2 * kSecondsPerHour, 12 * kSecondsPerHour, 0},
        {"medium", 12 * kSecondsPerHour, 12 * kSecondsPerHour, 0},
        {"long", 3 * kSecondsPerDay, 12 * kSecondsPerHour, 0},
    });
    coarse.calibrateAverages(trace);
    fine.calibrateAverages(trace);

    const PolicyPtr lw = makePolicy("Lowest-Window");
    const double carbon_coarse =
        testutil::runSim(trace, *lw, coarse, cis).carbon_kg;
    const double carbon_fine =
        testutil::runSim(trace, *lw, fine, cis).carbon_kg;
    // Allow a small tolerance: better estimates are not a strict
    // guarantee per-instance, but must not blow up.
    EXPECT_LT(carbon_fine, carbon_coarse * 1.05);
}

} // namespace
} // namespace gaia
