/**
 * @file
 * Focused scenarios for the work-conserving ReservedFirst machinery:
 * drain ordering, first-fit behaviour, and event-timing ties.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

using testutil::oneQueue;
using testutil::flatTrace;

SimulationResult
runReservedFirst(const JobTrace &trace, int reserved,
                 Seconds max_wait,
                 const std::string &policy = "AllWait-Threshold")
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(max_wait);
    ClusterConfig cluster;
    cluster.reserved_cores = reserved;
    const PolicyPtr p = makePolicy(policy);
    return testutil::runSim(trace, *p, queues, cis, cluster,
                    ResourceStrategy::ReservedFirst);
}

TEST(WorkConserving, FirstFitSkipsWideHeadOfLine)
{
    // Pool of 2. Job A (2 cores, 2 h) fills it. Job B (2 cores)
    // and job C (1 core) queue behind. When A releases both cores,
    // B (earlier planned start) takes them; C must wait for B even
    // though C arrived before... — construct the opposite: B too
    // wide for a partial release, C slips through (first-fit).
    const JobTrace trace(
        "t", {
                 {1, 0, hours(2), 1},      // A1: 1 core
                 {2, 0, hours(4), 1},      // A2: 1 core
                 {3, 100, hours(1), 2},    // B: needs both cores
                 {4, 200, hours(1), 1},    // C: fits a single core
             });
    const SimulationResult r =
        runReservedFirst(trace, 2, hours(20));

    // A1 frees one core at 2 h: B (2 cores) cannot fit, C can.
    EXPECT_EQ(r.start(r.outcomes[2]), hours(4)); // B waits for A2 too
    EXPECT_EQ(r.start(r.outcomes[3]), hours(2)); // C takes the core
    EXPECT_EQ(r.placements(r.outcomes[3])[0].option,
              PurchaseOption::Reserved);
    // C is placed before B, out of job order, after a prefix of
    // three placements: the segment column is regrouped by job.
    EXPECT_EQ(checkColumns(r).message(), "");
}

TEST(WorkConserving, DrainOrderFollowsPlannedStart)
{
    // With AllWait the planned start is submit + W, so earlier
    // submitters drain first.
    const JobTrace trace("t", {
                                  {1, 0, hours(3), 1},
                                  {2, 100, hours(1), 1},
                                  {3, 200, hours(1), 1},
                              });
    const SimulationResult r =
        runReservedFirst(trace, 1, hours(20));
    EXPECT_EQ(r.start(r.outcomes[1]), hours(3));
    EXPECT_EQ(r.start(r.outcomes[2]), hours(4));
    for (const JobOutcome &o : r.outcomes)
        EXPECT_EQ(r.placements(o)[0].option, PurchaseOption::Reserved);
}

TEST(WorkConserving, CascadingReleasesDrainEverything)
{
    // Ten queued jobs funnel through one reserved core strictly
    // back-to-back: total busy time has no gaps.
    std::vector<Job> jobs;
    for (int i = 0; i < 10; ++i)
        jobs.push_back({i, 0, hours(1), 1});
    const JobTrace trace("t", std::move(jobs));
    const SimulationResult r =
        runReservedFirst(trace, 1, hours(30));

    std::vector<Seconds> starts;
    for (const JobOutcome &o : r.outcomes)
        starts.push_back(r.start(o));
    std::sort(starts.begin(), starts.end());
    for (std::size_t i = 0; i < starts.size(); ++i)
        EXPECT_EQ(starts[i], static_cast<Seconds>(i) * hours(1));
    EXPECT_DOUBLE_EQ(r.reserved_utilization *
                         static_cast<double>(r.horizon),
                     10.0 * hours(1));
}

TEST(WorkConserving, ReleaseAndDeadlineTieIsDeterministic)
{
    // Job B's waiting limit expires exactly when job A releases
    // the core. Whatever the resolution, it must be identical
    // across runs.
    const JobTrace trace("t", {
                                  {1, 0, hours(2), 1},
                                  {2, 0, hours(1), 1},
                              });
    const SimulationResult a =
        runReservedFirst(trace, 1, hours(2));
    const SimulationResult b =
        runReservedFirst(trace, 1, hours(2));
    EXPECT_EQ(a.start(a.outcomes[1]), b.start(b.outcomes[1]));
    EXPECT_EQ(a.placements(a.outcomes[1])[0].option,
              b.placements(b.outcomes[1])[0].option);
    EXPECT_EQ(a.start(a.outcomes[1]), hours(2));
}

TEST(WorkConserving, ZeroReservedDegeneratesToPlannedStarts)
{
    const JobTrace trace("t", {{1, 0, hours(1), 1},
                               {2, 50, hours(1), 2}});
    const SimulationResult r =
        runReservedFirst(trace, 0, hours(3));
    for (const JobOutcome &o : r.outcomes) {
        EXPECT_EQ(r.start(o), r.job(o).submit + hours(3));
        EXPECT_EQ(r.placements(o)[0].option, PurchaseOption::OnDemand);
    }
}

TEST(WorkConserving, CarbonPolicyStillUsesCarbonStartWhenQueued)
{
    // Reserved core is busy for a long time; the Lowest-Slot job
    // falls back to on-demand at its carbon-chosen start, not at
    // submit+W.
    std::vector<double> hourly(24 * 40, 500.0);
    hourly[2] = 10.0;
    const CarbonTrace carbon("step", hourly);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(10), 1},
                               {2, 0, hours(1), 1}});
    ClusterConfig cluster;
    cluster.reserved_cores = 1;
    const PolicyPtr p = makePolicy("Lowest-Slot");
    const SimulationResult r =
        testutil::runSim(trace, *p, queues, cis, cluster,
                 ResourceStrategy::ReservedFirst);
    EXPECT_EQ(r.start(r.outcomes[1]), hours(2));
    EXPECT_EQ(r.placements(r.outcomes[1])[0].option,
              PurchaseOption::OnDemand);
}

TEST(WorkConserving, MixedWidthHeavyLoadInvariants)
{
    // Stress: 200 mixed-width jobs through a small pool; the
    // engine's internal assertions plus these checks cover pending
    // bookkeeping under heavy churn.
    std::vector<Job> jobs;
    Rng rng(5);
    for (int i = 0; i < 200; ++i) {
        jobs.push_back({i, rng.uniformInt(0, hours(24)),
                        rng.uniformInt(600, hours(3)),
                        static_cast<int>(rng.uniformInt(1, 4))});
    }
    const JobTrace trace("t", std::move(jobs));
    const SimulationResult r =
        runReservedFirst(trace, 6, hours(8), "Carbon-Time");
    ASSERT_EQ(r.outcomes.size(), 200u);
    for (const JobOutcome &o : r.outcomes) {
        EXPECT_GE(r.start(o), r.job(o).submit);
        EXPECT_LE(r.start(o), r.job(o).submit + hours(8));
    }
}

} // namespace
} // namespace gaia
