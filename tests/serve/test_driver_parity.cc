/**
 * @file
 * Driver parity pins: streaming a golden scenario's trace through
 * the accelerated wall-clock daemon produces the byte-identical
 * fingerprint of the batch virtual-clock run — the tentpole
 * guarantee of the serving layer. Cells are drawn from the golden
 * sweeps (fig08 policy comparison, fig14 waiting pair, fig19
 * hybrid spot+reserved) plus an elastic-scaling cell, an elastic
 * hybrid cell under cluster faults and a hybrid cell under
 * carbon-source outages, unpaced and wall-clock paced.
 */

#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <thread>

#include "analysis/scenario.h"
#include "common/obs.h"
#include "serve/daemon.h"
#include "sim/results.h"

namespace gaia::serve {
namespace {

/** Batch fingerprint of `spec` via the virtual-clock driver. */
std::uint64_t
batchFingerprint(const ScenarioSpec &spec)
{
    const Result<SimulationResult> result = runScenario(spec);
    EXPECT_TRUE(result.isOk()) << result.status().toString();
    return result.isOk() ? resultFingerprint(*result) : 0;
}

/** Streamed fingerprint: boot a daemon, stream the calibration
 *  trace job by job, drain. */
std::uint64_t
streamedFingerprint(const ScenarioSpec &spec, double accel)
{
    ServeConfig config;
    config.scenario = spec;
    config.accel = accel;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    EXPECT_TRUE(daemon.isOk()) << daemon.status().toString();
    if (!daemon.isOk())
        return 1;

    for (const Job &job : (*daemon)->calibrationTrace().jobs()) {
        Status status = (*daemon)->submit(job);
        while (!status.isOk() &&
               status.code() == ErrorCode::ResourceExhausted) {
            std::this_thread::yield();
            status = (*daemon)->submit(job);
        }
        EXPECT_TRUE(status.isOk()) << status.toString();
    }
    Result<SimulationResult> streamed = (*daemon)->drain();
    EXPECT_TRUE(streamed.isOk()) << streamed.status().toString();
    return streamed.isOk() ? resultFingerprint(*streamed) : 1;
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
    const ScenarioSpec spec = weekSpec("Carbon-Time");
    EXPECT_EQ(batchFingerprint(spec),
              streamedFingerprint(spec, /*accel=*/0.0));
}

TEST(DriverParity, Fig14LowestWindowTightWaitingCell)
{
    ScenarioSpec spec = weekSpec("Lowest-Window");
    spec.short_wait = hours(1);
    spec.long_wait = hours(24);
    EXPECT_EQ(batchFingerprint(spec),
              streamedFingerprint(spec, /*accel=*/0.0));
}

TEST(DriverParity, Fig19HybridSpotReservedCell)
{
    const ScenarioSpec spec = hybridSpec();
    EXPECT_EQ(batchFingerprint(spec),
              streamedFingerprint(spec, /*accel=*/0.0));
}

TEST(DriverParity, ElasticScalerCell)
{
    ScenarioSpec spec = weekSpec("Carbon-Scaler");
    spec.elastic_profile = "diminishing:max=4,alpha=0.6";
    EXPECT_EQ(batchFingerprint(spec),
              streamedFingerprint(spec, /*accel=*/0.0));
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
    EXPECT_EQ(batchFingerprint(spec),
              streamedFingerprint(spec, /*accel=*/0.0));
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
    const std::uint64_t batch = batchFingerprint(spec);
    EXPECT_GT(obs::counter("cis.retries").value(), retries_before);
    EXPECT_EQ(batch, streamedFingerprint(spec, /*accel=*/0.0));
}

TEST(DriverParity, WallClockPacingCannotPerturbTheSchedule)
{
    // Paced run: virtual time trails the wall clock, so the driver
    // interleaves real tick advancement with releases — the
    // release-horizon bound must still reproduce the batch order.
    // High acceleration keeps the test fast (a simulated week
    // passes in well under a second of wall time).
    const ScenarioSpec spec = hybridSpec();
    const std::uint64_t batch = batchFingerprint(spec);
    EXPECT_EQ(batch, streamedFingerprint(spec, /*accel=*/2.0e6));
    EXPECT_EQ(batch, streamedFingerprint(spec, /*accel=*/7.0e6));
    // A pace past any Seconds value runs unpaced.
    EXPECT_EQ(batch, streamedFingerprint(spec, /*accel=*/1.0e300));
    EXPECT_EQ(batch,
              streamedFingerprint(
                  spec, std::numeric_limits<double>::infinity()));
}

} // namespace
} // namespace gaia::serve
