/**
 * @file
 * End-to-end reproduction of the artifact appendix's workflow
 * (A.5): the same invocations the original README teaches, driven
 * through the CLI layer, with the qualitative relationships the
 * artifact's figures rely on checked on the outputs.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "cli/runner.h"
#include "common/csv.h"

namespace gaia {
namespace {

std::string
outDir(const std::string &leaf)
{
    return (std::filesystem::temp_directory_path() / leaf).string();
}

CliOptions
baseOptions(const std::string &leaf)
{
    CliOptions options;
    options.workload = "alibaba";
    options.jobs = 400;
    options.span = days(5);
    options.region = "SA-AU";
    options.seed = 13;
    options.output_dir = outDir(leaf);
    return options;
}

TEST(ArtifactWorkflow, ExampleOneCostAndCarbonAgnostic)
{
    // A.5 example 1: run carbon- and cost-agnostic (-w 0x0).
    CliOptions options = baseOptions("aw_example1");
    options.policy = "NoWait";
    parseWaitingSpec("0x0", options.short_wait,
                     options.long_wait);
    const SimulationResult r = runFromOptions(options).value();
    EXPECT_DOUBLE_EQ(r.meanWaitingHours(), 0.0);
    EXPECT_NEAR(r.carbon_kg, r.carbon_nowait_kg, 1e-9);
    std::filesystem::remove_all(options.output_dir);
}

TEST(ArtifactWorkflow, ExampleTwoLowestCarbonWindow)
{
    // A.5 example 2: lowest carbon window with 6x24 waiting.
    CliOptions agnostic = baseOptions("aw_example2a");
    agnostic.policy = "NoWait";
    const SimulationResult nowait = runFromOptions(agnostic).value();

    CliOptions aware = baseOptions("aw_example2b");
    aware.policy = "Lowest-Window";
    parseWaitingSpec("6x24", aware.short_wait, aware.long_wait);
    const SimulationResult lw = runFromOptions(aware).value();

    // The artifact's core relationship: carbon-aware waits, saves.
    EXPECT_LT(lw.carbon_kg, nowait.carbon_kg);
    EXPECT_GT(lw.meanWaitingHours(), 0.0);
    std::filesystem::remove_all(agnostic.output_dir);
    std::filesystem::remove_all(aware.output_dir);
}

TEST(ArtifactWorkflow, HybridRunMatchesFigureTenOrdering)
{
    // Figure 10's cost ordering through the CLI: AllWait with
    // work-conserving reserved use is cheaper than pure on-demand
    // carbon-aware execution.
    CliOptions allwait = baseOptions("aw_fig10a");
    allwait.policy = "AllWait-Threshold";
    allwait.strategy = "res-first";
    allwait.reserved = 12;
    const SimulationResult cheap = runFromOptions(allwait).value();

    CliOptions ct = baseOptions("aw_fig10b");
    ct.policy = "Carbon-Time";
    ct.strategy = "hybrid";
    ct.reserved = 12;
    const SimulationResult green = runFromOptions(ct).value();

    EXPECT_LT(cheap.totalCost(), green.totalCost());
    EXPECT_LT(green.carbon_kg, cheap.carbon_kg);
    std::filesystem::remove_all(allwait.output_dir);
    std::filesystem::remove_all(ct.output_dir);
}

TEST(ArtifactWorkflow, OutputFilesAreWellFormed)
{
    CliOptions options = baseOptions("aw_outputs");
    options.policy = "Carbon-Time";
    RunArtifacts artifacts;
    const SimulationResult r = runFromOptions(options, &artifacts).value();

    // details.csv rows reconcile with the aggregate.
    const CsvTable details =
        tryReadCsv(artifacts.details_csv).value();
    ASSERT_EQ(details.rowCount(), r.outcomes.size());
    double wait_sum = 0.0;
    const std::size_t wait_col =
        details.tryColumnIndex("wait_s").value();
    for (std::size_t i = 0; i < details.rowCount(); ++i)
        wait_sum += details.tryCellDouble(i, wait_col).value();
    EXPECT_NEAR(wait_sum / 3600.0 /
                    static_cast<double>(details.rowCount()),
                r.meanWaitingHours(), 1e-6);

    // allocation.csv columns reconcile with the usage split.
    const CsvTable allocation =
        tryReadCsv(artifacts.allocation_csv).value();
    double od_core_hours = 0.0;
    const std::size_t od_col =
        allocation.tryColumnIndex("on_demand").value();
    for (std::size_t i = 0; i < allocation.rowCount(); ++i)
        od_core_hours += allocation.tryCellDouble(i, od_col).value();
    EXPECT_NEAR(od_core_hours * 3600.0,
                r.on_demand_core_seconds,
                r.on_demand_core_seconds * 0.01 + 10.0);
    std::filesystem::remove_all(options.output_dir);
}

TEST(ArtifactWorkflow, ForecasterFlagChangesPlansNotAccounting)
{
    CliOptions oracle = baseOptions("aw_fc1");
    oracle.policy = "Lowest-Window";
    const SimulationResult a = runFromOptions(oracle).value();

    CliOptions persistence = baseOptions("aw_fc2");
    persistence.policy = "Lowest-Window";
    persistence.forecaster = "persistence";
    const SimulationResult b = runFromOptions(persistence).value();

    // Same jobs, same trace: identical counterfactual carbon
    // (accounting is forecast-independent), different schedules.
    EXPECT_NEAR(a.carbon_nowait_kg, b.carbon_nowait_kg, 1e-9);
    EXPECT_NE(a.carbon_kg, b.carbon_kg);
    std::filesystem::remove_all(oracle.output_dir);
    std::filesystem::remove_all(persistence.output_dir);
}

} // namespace
} // namespace gaia
