/** @file Tests for simulation result structures. */

#include "sim/results.h"

#include <gtest/gtest.h>

namespace gaia {
namespace {

JobOutcome
makeOutcome(Seconds submit, Seconds length, Seconds start, int cpus)
{
    JobOutcome o;
    o.id = 1;
    o.submit = submit;
    o.length = length;
    o.cpus = cpus;
    o.segments.push_back(
        {start, start + length, PurchaseOption::OnDemand, false});
    return o;
}

TEST(JobOutcome, TimingDerivations)
{
    const JobOutcome o = makeOutcome(100, 500, 300, 1);
    EXPECT_EQ(o.completion(), 700);
    EXPECT_EQ(o.waiting(), 200);
}

TEST(JobOutcome, OneSegmentGivesItsSpan)
{
    const JobOutcome o = makeOutcome(100, 500, 300, 2);
    EXPECT_EQ(o.start(), 300);
    EXPECT_EQ(o.finish(), 800);
    EXPECT_EQ(o.lostCoreSeconds(), 0.0);
}

TEST(JobOutcome, FinishIgnoresLostSlices)
{
    // A suspend-resume job on spot: the first slice completes, the
    // second is evicted after 30 min.
    JobOutcome o;
    o.submit = 0;
    o.length = 2 * 3600;
    o.cpus = 2;
    o.evictions = 1;
    o.segments.push_back({0, 3600, PurchaseOption::Spot, false});
    o.segments.push_back({7200, 9000, PurchaseOption::Spot, true});
    EXPECT_EQ(o.start(), 0);
    EXPECT_EQ(o.finish(), 3600); // not the lost slice's end
    EXPECT_EQ(o.lostCoreSeconds(), 1800.0 * 2);

    // The restart on on-demand settles the job.
    o.segments.push_back({9000, 12600, PurchaseOption::OnDemand, false});
    EXPECT_EQ(o.start(), 0);
    EXPECT_EQ(o.finish(), 12600);
    EXPECT_EQ(o.lostCoreSeconds(), 1800.0 * 2);
    EXPECT_EQ(o.waiting(), 12600 - 2 * 3600);
}

TEST(JobOutcome, LostGangCountsEveryInstance)
{
    // An elastic gang of two 3-core instances, lost after 20 min.
    JobOutcome o;
    o.cpus = 3;
    o.segments.push_back({600, 1800, PurchaseOption::Spot, true, 2});
    EXPECT_EQ(o.start(), 600);
    EXPECT_EQ(o.finish(), 0);
    EXPECT_EQ(o.lostCoreSeconds(), 1200.0 * 3 * 2);
}

TEST(JobOutcome, NoSegmentsGivesZeros)
{
    const JobOutcome o;
    EXPECT_EQ(o.start(), 0);
    EXPECT_EQ(o.finish(), 0);
    EXPECT_EQ(o.lostCoreSeconds(), 0.0);
}

TEST(JobOutcome, CarbonSaved)
{
    JobOutcome o = makeOutcome(0, 100, 0, 1);
    o.carbon_nowait_g = 50.0;
    o.carbon_g = 30.0;
    EXPECT_DOUBLE_EQ(o.carbonSaved(), 20.0);
}

TEST(SimulationResult, CostAndWaitAggregates)
{
    SimulationResult r;
    r.reserved_upfront = 10.0;
    r.on_demand_cost = 5.0;
    r.spot_cost = 1.0;
    EXPECT_DOUBLE_EQ(r.totalCost(), 16.0);

    r.outcomes.push_back(makeOutcome(0, 3600, 3600, 1));  // wait 1 h
    r.outcomes.push_back(makeOutcome(0, 3600, 10800, 1)); // wait 3 h
    EXPECT_DOUBLE_EQ(r.meanWaitingHours(), 2.0);
    EXPECT_DOUBLE_EQ(r.meanCompletionHours(), 3.0);
    EXPECT_NEAR(r.p95WaitingHours(), 2.9, 0.11);
}

TEST(SimulationResult, EmptyAggregatesAreZero)
{
    const SimulationResult r;
    EXPECT_DOUBLE_EQ(r.meanWaitingHours(), 0.0);
    EXPECT_DOUBLE_EQ(r.meanCompletionHours(), 0.0);
    EXPECT_DOUBLE_EQ(r.p95WaitingHours(), 0.0);
    EXPECT_DOUBLE_EQ(r.carbonSavedKg(), 0.0);
}

TEST(AllocationSeries, SplitsByPurchaseOption)
{
    SimulationResult r;
    r.horizon = 200;
    JobOutcome a = makeOutcome(0, 100, 0, 2); // on-demand [0,100)
    JobOutcome b = makeOutcome(0, 100, 50, 3);
    b.segments[0].option = PurchaseOption::Reserved; // [50,150)
    r.outcomes.push_back(a);
    r.outcomes.push_back(b);

    const auto all = allocationSeries(r, 50);
    ASSERT_EQ(all.size(), 4u);
    EXPECT_DOUBLE_EQ(all[0], 2.0);
    EXPECT_DOUBLE_EQ(all[1], 5.0);
    EXPECT_DOUBLE_EQ(all[2], 3.0);
    EXPECT_DOUBLE_EQ(all[3], 0.0);

    const auto reserved_only = allocationSeries(
        r, 50, false, PurchaseOption::Reserved);
    EXPECT_DOUBLE_EQ(reserved_only[0], 0.0);
    EXPECT_DOUBLE_EQ(reserved_only[1], 3.0);
    const auto od_only = allocationSeries(
        r, 50, false, PurchaseOption::OnDemand);
    EXPECT_DOUBLE_EQ(od_only[1], 2.0);
}

TEST(AllocationSeries, ExtendsPastHorizonForLateSegments)
{
    SimulationResult r;
    r.horizon = 100;
    r.outcomes.push_back(makeOutcome(0, 100, 150, 1));
    const auto series = allocationSeries(r, 100);
    ASSERT_EQ(series.size(), 3u);
    EXPECT_DOUBLE_EQ(series[2], 0.5);
}

} // namespace
} // namespace gaia
