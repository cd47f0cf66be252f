/** @file End-to-end pipeline tests across all modules. */

#include <gtest/gtest.h>

#include <cstdio>

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "common/table.h"
#include "core/policy_factory.h"
#include "trace/region_model.h"
#include "workload/generators.h"

namespace gaia {
namespace {

TEST(EndToEnd, FullPipelineOverAllPolicies)
{
    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 12, 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    std::vector<MetricsRow> rows;
    for (const std::string &name : allPolicyNames()) {
        const SimulationResult r =
            runPolicy(name, trace, queues, cis);
        EXPECT_EQ(r.outcomes.size(), trace.jobCount()) << name;
        EXPECT_GT(r.totalCost(), 0.0) << name;
        EXPECT_GT(r.carbon_kg, 0.0) << name;
        rows.push_back(metricsOf(name, r));
    }

    const auto normalized = normalizedToMax(rows);
    TextTable table("e2e", {"policy", "carbon", "cost", "wait"});
    for (const MetricsRow &row : normalized) {
        EXPECT_LE(row.carbon_kg, 1.0 + 1e-12);
        EXPECT_LE(row.cost, 1.0 + 1e-12);
        table.addRow(row.label,
                     {row.carbon_kg, row.cost, row.wait_hours});
    }
    EXPECT_EQ(table.rowCount(), allPolicyNames().size());
}

TEST(EndToEnd, TraceCsvRoundTripPreservesResults)
{
    const JobTrace trace = makeMotivatingTrace(days(2), 9);
    const CarbonTrace carbon =
        makeRegionTrace(Region::CaliforniaUS, 24 * 8, 9);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    const std::string job_path = ::testing::TempDir() + "e2e.csv";
    const std::string carbon_path =
        ::testing::TempDir() + "e2e_carbon.csv";
    ASSERT_TRUE(trace.toCsv(job_path).isOk());
    ASSERT_TRUE(carbon.toCsv(carbon_path).isOk());

    const JobTrace trace2 =
        JobTrace::fromCsv(job_path, trace.name()).value();
    const CarbonTrace carbon2 =
        CarbonTrace::fromCsv(carbon_path, carbon.region()).value();
    const CarbonInfoService cis2(carbon2);

    const SimulationResult a =
        runPolicy("Lowest-Window", trace, queues, cis);
    const SimulationResult b =
        runPolicy("Lowest-Window", trace2, queues, cis2);
    // CSV carbon values are rounded to 4 decimals; totals must
    // agree to well under a gram.
    EXPECT_NEAR(a.carbon_kg, b.carbon_kg,
                1e-4 * a.carbon_kg + 1e-9);
    EXPECT_DOUBLE_EQ(a.totalCost(), b.totalCost());
    EXPECT_DOUBLE_EQ(a.meanWaitingHours(), b.meanWaitingHours());
    std::remove(job_path.c_str());
    std::remove(carbon_path.c_str());
}

TEST(EndToEnd, SeedsProduceDistinctButValidWorlds)
{
    const CarbonTrace c1 =
        makeRegionTrace(Region::Netherlands, 24 * 10, 1);
    const CarbonTrace c2 =
        makeRegionTrace(Region::Netherlands, 24 * 10, 2);
    const JobTrace t1 = makeMotivatingTrace(days(3), 1);
    const JobTrace t2 = makeMotivatingTrace(days(3), 2);
    const CarbonInfoService cis1(c1);
    const CarbonInfoService cis2(c2);

    const SimulationResult r1 =
        runPolicy("Carbon-Time", t1, calibratedQueues(t1), cis1);
    const SimulationResult r2 =
        runPolicy("Carbon-Time", t2, calibratedQueues(t2), cis2);
    EXPECT_NE(r1.carbon_kg, r2.carbon_kg);
    EXPECT_NE(r1.totalCost(), r2.totalCost());
}

TEST(EndToEnd, ForecastNoiseDegradesGracefully)
{
    // The forecast-noise ablation premise: noisy forecasts lose
    // some savings but never break the waiting-time contract.
    const JobTrace trace = makeWeekTrace(5);
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 12, 5);
    const QueueConfig queues = calibratedQueues(trace);

    const CarbonInfoService perfect(carbon, 0.0);
    const CarbonInfoService noisy(carbon, 0.5, 17);

    const SimulationResult clean =
        runPolicy("Lowest-Window", trace, queues, perfect);
    const SimulationResult rough =
        runPolicy("Lowest-Window", trace, queues, noisy);

    for (const JobOutcome &o : rough.outcomes) {
        const Seconds max_wait =
            queues.queueFor(rough.length(o)).max_wait;
        EXPECT_LE(rough.start(o), rough.job(o).submit + max_wait);
    }
    // Perfect information should not do worse (tiny tolerance for
    // tie-breaking differences).
    EXPECT_LE(clean.carbon_kg, rough.carbon_kg * 1.02);
}

} // namespace
} // namespace gaia
