/**
 * @file
 * Driver parity pins: streaming a golden scenario's trace through
 * the accelerated wall-clock daemon produces the byte-identical
 * fingerprint of the batch virtual-clock run — the tentpole
 * guarantee of the serving layer. Cells are drawn from the golden
 * sweeps (fig08 policy comparison, fig14 waiting pair, fig19
 * hybrid spot+reserved) plus an elastic-scaling cell, an elastic
 * hybrid cell under cluster faults and a hybrid cell under
 * carbon-source outages, unpaced and wall-clock paced. The
 * fingerprint mixes values, not which columns hold them, so each
 * cell also compares the columns the two results hold and their
 * lengths: a streamed engine that filled an optional column with
 * its defaults would match the fingerprint and still hold more.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "analysis/scenario.h"
#include "common/obs.h"
#include "serve/daemon.h"
#include "sim/results.h"
#include "tests/common/sim_test_util.h"

namespace gaia::serve {
namespace {

using testutil::HeldColumns;

/** What a parity check compares of one run: its fingerprint and the
 *  columns its result holds. */
struct Run
{
    std::uint64_t fingerprint = 0;
    HeldColumns columns;
};

Run
runOf(const Result<SimulationResult> &result, std::uint64_t failed)
{
    EXPECT_TRUE(result.isOk()) << result.status().toString();
    if (!result.isOk())
        return {failed, {}};
    return {resultFingerprint(*result), testutil::heldColumns(*result)};
}

/** Batch run of `spec` via the virtual-clock driver. */
Run
batchRun(const ScenarioSpec &spec)
{
    return runOf(runScenario(spec), 0);
}

/** Streamed run: boot a daemon, stream the calibration trace job by
 *  job, drain. */
Run
streamedRun(const ScenarioSpec &spec, double accel)
{
    ServeConfig config;
    config.scenario = spec;
    config.accel = accel;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    EXPECT_TRUE(daemon.isOk()) << daemon.status().toString();
    if (!daemon.isOk())
        return {1, {}};

    for (const Job &job : (*daemon)->calibrationTrace().jobs()) {
        Status status = (*daemon)->submit(job);
        while (!status.isOk() &&
               status.code() == ErrorCode::ResourceExhausted) {
            std::this_thread::yield();
            status = (*daemon)->submit(job);
        }
        EXPECT_TRUE(status.isOk()) << status.toString();
    }
    return runOf((*daemon)->drain(), 1);
}

/** Whether `columns` holds the column `name`. */
bool
holds(const HeldColumns &columns, const std::string &name)
{
    for (const auto &column : columns) {
        if (column.first == name)
            return true;
    }
    return false;
}

/** Check that `spec` streamed at `accel` gives the batch run's
 *  fingerprint and columns, and that neither holds high start words
 *  (no cell starts a slice past 2^32 s); returns the batch run's
 *  columns. */
HeldColumns
expectParity(const ScenarioSpec &spec, double accel)
{
    const Run batch = batchRun(spec);
    const Run streamed = streamedRun(spec, accel);
    EXPECT_EQ(batch.fingerprint, streamed.fingerprint);
    EXPECT_EQ(batch.columns, streamed.columns);
    EXPECT_FALSE(holds(batch.columns, "segment_starts_hi"));
    return batch.columns;
}

/** fig08/fig14 base: week-long 1k-job Alibaba-PAI trace. */
ScenarioSpec
weekSpec(const std::string &policy)
{
    ScenarioSpec spec;
    spec.workload = WorkloadSpec::week(1);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    spec.policy = policy;
    return spec;
}

/** fig19 cell: spot+reserved Azure-VM with 10%/h evictions. */
ScenarioSpec
hybridSpec()
{
    TraceBuildOptions options;
    options.job_count = 600;
    options.span = kSecondsPerWeek;
    options.seed = 1;

    ScenarioSpec spec;
    spec.workload =
        WorkloadSpec::builtin(WorkloadSource::AzureVm, options);
    spec.carbon = CarbonSpec::forRegion(Region::SouthAustralia,
                                        24 * 13, 1);
    spec.policy = "Carbon-Time";
    spec.strategy = ResourceStrategy::SpotReserved;
    spec.cluster.reserved_cores = 4;
    spec.cluster.spot_eviction_rate = 0.10;
    spec.cluster.spot_max_length = hours(2);
    return spec;
}

TEST(DriverParity, Fig08CarbonTimeCell)
{
    // A fault-free on-demand start-time run: each job is one slice
    // at width 1 lasting its length, so only the starts are held.
    const ScenarioSpec spec = weekSpec("Carbon-Time");
    const HeldColumns columns = expectParity(spec, /*accel=*/0.0);
    ASSERT_EQ(columns.size(), 2u);
    EXPECT_EQ(columns[0].first, "outcomes");
    EXPECT_EQ(columns[1].first, "segment_starts");
    EXPECT_EQ(columns[1].second, columns[0].second);
}

TEST(DriverParity, Fig14LowestWindowTightWaitingCell)
{
    ScenarioSpec spec = weekSpec("Lowest-Window");
    spec.short_wait = hours(1);
    spec.long_wait = hours(24);
    expectParity(spec, /*accel=*/0.0);
}

TEST(DriverParity, Fig19HybridSpotReservedCell)
{
    const HeldColumns columns = expectParity(hybridSpec(), 0.0);
    EXPECT_TRUE(holds(columns, "segment_options"));
    EXPECT_TRUE(holds(columns, "job_evictions"));
}

TEST(DriverParity, ElasticScalerCell)
{
    ScenarioSpec spec = weekSpec("Carbon-Scaler");
    spec.elastic_profile = "diminishing:max=4,alpha=0.6";
    EXPECT_TRUE(
        holds(expectParity(spec, /*accel=*/0.0), "segment_widths"));
}

TEST(DriverParity, ElasticHybridCellUnderClusterFaults)
{
    // Stragglers stretch lengths, delays move arrivals out of submit
    // order and storms restart elastic gangs: every admitted field
    // the engine keeps outside the outcome must stream like batch.
    ScenarioSpec spec = hybridSpec();
    spec.policy = "Carbon-Scaler";
    spec.elastic_profile = "linear:max=4";
    const Result<FaultSpec> fault = FaultSpec::parse(
        "straggler:rate=0.3,factor=1.5;delay:rate=0.2,minutes=20;"
        "storm:rate=0.05");
    ASSERT_TRUE(fault.isOk()) << fault.status().toString();
    spec.fault = *fault;
    const HeldColumns columns = expectParity(spec, /*accel=*/0.0);
    EXPECT_TRUE(holds(columns, "segment_widths"));
    EXPECT_TRUE(holds(columns, "arrival_delays"));
}

TEST(DriverParity, HybridCellUnderCarbonSourceOutages)
{
    // Outages send arrivals down the retry and degradation ladder:
    // retries re-arrive at their own priority, and jobs whose budget
    // runs out plan carbon-obliviously. Streamed through the daemon,
    // every eviction draw must still land where batch put it.
    ScenarioSpec spec = hybridSpec();
    const Result<FaultSpec> fault =
        FaultSpec::parse("outage:rate=0.2,hours=2");
    ASSERT_TRUE(fault.isOk()) << fault.status().toString();
    spec.fault = *fault;
    const std::uint64_t retries_before =
        obs::counter("cis.retries").value();
    expectParity(spec, /*accel=*/0.0);
    EXPECT_GT(obs::counter("cis.retries").value(), retries_before);
}

TEST(DriverParity, WallClockPacingCannotPerturbTheSchedule)
{
    // Paced run: virtual time trails the wall clock, so the driver
    // interleaves real tick advancement with releases — the
    // release-horizon bound must still reproduce the batch order.
    // High acceleration keeps the test fast (a simulated week
    // passes in well under a second of wall time).
    const ScenarioSpec spec = hybridSpec();
    expectParity(spec, /*accel=*/2.0e6);
    expectParity(spec, /*accel=*/7.0e6);
    // A pace past any Seconds value runs unpaced.
    expectParity(spec, /*accel=*/1.0e300);
    expectParity(spec, std::numeric_limits<double>::infinity());
}

} // namespace
} // namespace gaia::serve
