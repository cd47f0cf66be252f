/** @file Tests for extension policies (Adaptive-SR). */

#include "core/policies.h"

#include <gtest/gtest.h>

#include "common/rng.h"
#include "trace/region_model.h"

namespace gaia {
namespace {

SchedulePlan
planWith(const SchedulingPolicy &policy,
         const CarbonTrace &trace, const Job &job, Seconds max_wait)
{
    CarbonInfoService cis(trace);
    QueueSpec queue{"q", 30 * kSecondsPerDay, max_wait, 0};
    PlanContext ctx{job.submit, &cis, &queue};
    return policy.plan(job, ctx);
}

TEST(AdaptiveSR, RunsImmediatelyInCheapSlots)
{
    std::vector<double> hourly(48, 100.0);
    for (int s = 12; s < 30; ++s)
        hourly[s] = 500.0; // make slot 0 fall below the threshold
    const CarbonTrace trace("t", hourly);
    const AdaptiveSRPolicy policy;
    const SchedulePlan plan =
        planWith(policy, trace, {1, 0, hours(2), 1}, hours(6));
    EXPECT_EQ(plan.plannedStart(), 0);
}

TEST(AdaptiveSR, WaitsThroughExpensiveSlots)
{
    std::vector<double> hourly(48, 100.0);
    hourly[0] = hourly[1] = 900.0;
    const CarbonTrace trace("t", hourly);
    const AdaptiveSRPolicy policy;
    const SchedulePlan plan =
        planWith(policy, trace, {1, 0, hours(1), 1}, hours(6));
    EXPECT_EQ(plan.plannedStart(), hours(2));
}

TEST(AdaptiveSR, BudgetBoundAlwaysHolds)
{
    Rng rng(3);
    for (int trial = 0; trial < 20; ++trial) {
        const CarbonTrace trace = makeRegionTrace(
            Region::SouthAustralia, 24 * 10, rng.next());
        Job job{trial, rng.uniformInt(0, 2 * kSecondsPerDay),
                rng.uniformInt(1800, 12 * kSecondsPerHour), 1};
        const Seconds wait =
            rng.uniformInt(0, 12 * kSecondsPerHour);
        const AdaptiveSRPolicy policy;
        const SchedulePlan plan =
            planWith(policy, trace, job, wait);
        EXPECT_EQ(plan.totalRunTime(), job.length);
        EXPECT_LE(plan.plannedEnd(),
                  job.submit + job.length + wait);
        EXPECT_GE(plan.plannedStart(), job.submit);
    }
}

TEST(AdaptiveSR, ZeroBudgetDegeneratesToNoWait)
{
    const CarbonTrace trace(
        "t", std::vector<double>(48, 250.0));
    const AdaptiveSRPolicy policy;
    const SchedulePlan plan =
        planWith(policy, trace, {1, 777, hours(1), 1}, 0);
    ASSERT_EQ(plan.segmentCount(), 1u);
    EXPECT_EQ(plan.plannedStart(), 777);
}

TEST(AdaptiveSR, ThresholdRelaxesNearBudgetExhaustion)
{
    // One third of the next-24 h window is cheap, but only *after*
    // hour 16 — past the 12 h budget. Ecovisor pauses its entire
    // budget chasing the unreachable cheap slots; Adaptive-SR's
    // climbing threshold lets it start earlier.
    std::vector<double> hourly(48, 500.0);
    for (int s = 16; s < 24; ++s)
        hourly[s] = 10.0;
    const CarbonTrace trace("t", hourly);
    const Job job{1, 0, hours(1), 1};
    const Seconds wait = hours(12);

    const AdaptiveSRPolicy adaptive;
    const EcovisorPolicy ecovisor;
    const Seconds adaptive_start =
        planWith(adaptive, trace, job, wait).plannedStart();
    const Seconds ecovisor_start =
        planWith(ecovisor, trace, job, wait).plannedStart();
    EXPECT_LT(adaptive_start, ecovisor_start);
    EXPECT_EQ(ecovisor_start, wait); // hard cliff at the budget
}

TEST(AdaptiveSR, KeepsMostOfEcovisorsSavingsWithLessWaiting)
{
    // On a realistic volatile grid, Adaptive-SR should land at
    // similar carbon with meaningfully less mean waiting.
    const CarbonTrace trace =
        makeRegionTrace(Region::SouthAustralia, 24 * 12, 7);
    const CarbonInfoService cis(trace);
    QueueSpec queue{"q", 30 * kSecondsPerDay,
                    24 * kSecondsPerHour, 0};

    Rng rng(9);
    double eco_carbon = 0.0, adp_carbon = 0.0;
    double eco_wait = 0.0, adp_wait = 0.0;
    const EcovisorPolicy ecovisor;
    const AdaptiveSRPolicy adaptive;
    for (int i = 0; i < 120; ++i) {
        Job job{i, rng.uniformInt(0, 5 * kSecondsPerDay),
                rng.uniformInt(1800, 10 * kSecondsPerHour), 1};
        PlanContext ctx{job.submit, &cis, &queue};
        const SchedulePlan eco = ecovisor.plan(job, ctx);
        const SchedulePlan adp = adaptive.plan(job, ctx);
        for (const RunSegment &seg : eco.segments())
            eco_carbon += trace.integrate(seg.start, seg.end);
        for (const RunSegment &seg : adp.segments())
            adp_carbon += trace.integrate(seg.start, seg.end);
        eco_wait += static_cast<double>(
            eco.plannedEnd() - job.submit - job.length);
        adp_wait += static_cast<double>(
            adp.plannedEnd() - job.submit - job.length);
    }
    EXPECT_LT(adp_wait, eco_wait);
    EXPECT_LT(adp_carbon, eco_carbon * 1.25);
}

TEST(AdaptiveSRDeath, BadPercentileRejected)
{
    EXPECT_EXIT(AdaptiveSRPolicy(-1.0),
                ::testing::ExitedWithCode(1), "percentile");
    EXPECT_EXIT(AdaptiveSRPolicy(101.0),
                ::testing::ExitedWithCode(1), "percentile");
}

} // namespace
} // namespace gaia
