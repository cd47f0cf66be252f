/**
 * @file
 * ServeDaemon behaviour: streamed parity with the batch simulator,
 * backpressure accounting, late-arrival rejection, carbon-source
 * edge counting, and drain semantics. Every test streams real jobs
 * through the real consumer thread — no mocks between the queue and
 * the engine.
 */

#include "serve/daemon.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <thread>

#include "analysis/scenario.h"
#include "common/obs.h"
#include "fault/injector.h"
#include "sim/results.h"

namespace gaia::serve {
namespace {

/** A small but RNG-rich scenario: spot + reserved on a 150-job
 *  Azure trace, so streamed/batch divergence has teeth. */
ScenarioSpec
smallSpec()
{
    TraceBuildOptions options;
    options.job_count = 150;
    options.span = 3 * kSecondsPerDay;
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

/** Submit with backpressure retries until accepted. */
void
submitBlocking(ServeDaemon &daemon, const Job &job)
{
    for (;;) {
        const Status status = daemon.submit(job);
        if (status.isOk())
            return;
        ASSERT_EQ(status.code(), ErrorCode::ResourceExhausted)
            << status.toString();
        std::this_thread::yield();
    }
}

/** Poll stats() until `done` is satisfied (bounded busy-wait). */
template <typename Pred>
ServeStats
waitForStats(ServeDaemon &daemon, Pred done)
{
    for (int i = 0; i < 100000; ++i) {
        const ServeStats s = daemon.stats();
        if (done(s))
            return s;
        std::this_thread::sleep_for(
            std::chrono::microseconds(100));
    }
    ADD_FAILURE() << "stats condition not reached";
    return daemon.stats();
}

TEST(ServeDaemon, StreamedCalibrationTraceMatchesTheBatchRun)
{
    const ScenarioSpec spec = smallSpec();
    const Result<SimulationResult> batch = runScenario(spec);
    ASSERT_TRUE(batch.isOk()) << batch.status().toString();

    ServeConfig config;
    config.scenario = spec;
    config.accel = 0.0; // unpaced: as fast as the stream allows
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();

    for (const Job &job : (*daemon)->calibrationTrace().jobs())
        submitBlocking(**daemon, job);
    Result<SimulationResult> streamed = (*daemon)->drain();
    ASSERT_TRUE(streamed.isOk()) << streamed.status().toString();

    EXPECT_EQ(resultFingerprint(*batch),
              resultFingerprint(*streamed));
    EXPECT_EQ(streamed->outcomes.size(),
              (*daemon)->calibrationTrace().jobCount());

    const ServeStats stats = (*daemon)->stats();
    EXPECT_EQ(stats.accepted,
              (*daemon)->calibrationTrace().jobCount());
    EXPECT_EQ(stats.released, stats.accepted);
    EXPECT_EQ(stats.completed, stats.accepted);
    EXPECT_EQ(stats.rejected_late, 0u);
}

TEST(ServeDaemon, LateArrivalsAreCountedAndSkippedNotFatal)
{
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    // Release a job at t=2h; unpaced, the clock advances to the
    // release horizon (2h - 1s), putting t=0 firmly in the past.
    submitBlocking(d, {1, hours(2), 600, 1});
    waitForStats(d, [](const ServeStats &s) {
        return s.released == 1 && s.sim_now >= hours(2) - 1;
    });

    // An out-of-order arrival is accepted by admission control but
    // rejected by the engine — counted, never a crash.
    submitBlocking(d, {2, 0, 600, 1});
    waitForStats(d, [](const ServeStats &s) {
        return s.rejected_late == 1;
    });

    // The stream keeps flowing afterwards.
    submitBlocking(d, {3, hours(3), 600, 1});
    Result<SimulationResult> result = d.drain();
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result->outcomes.size(), 2u);
    EXPECT_EQ(d.stats().rejected_late, 1u);
}

TEST(ServeDaemon, DrainIsOneShotAndClosesAdmission)
{
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    submitBlocking(d, {1, 100, 600, 1});
    ASSERT_TRUE(d.drain().isOk());

    const Status again = d.drain().status();
    EXPECT_EQ(again.code(), ErrorCode::FailedPrecondition);
    const Status post = d.submit({2, hours(1), 600, 1});
    EXPECT_EQ(post.code(), ErrorCode::FailedPrecondition);
}

TEST(ServeDaemon, DrainOnShutdownReleasesEverythingStillQueued)
{
    // Pace the clock to a crawl so submissions pile up in the queue
    // and drain() has real stragglers to hand over.
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 1.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    for (const Job &job : d.calibrationTrace().jobs())
        submitBlocking(d, job);
    Result<SimulationResult> result = d.drain();
    ASSERT_TRUE(result.isOk());
    EXPECT_EQ(result->outcomes.size(),
              d.calibrationTrace().jobCount());
    EXPECT_EQ(d.stats().released, d.stats().accepted);
}

TEST(ServeDaemon, FullQueueAnswersResourceExhausted)
{
    ServeConfig config;
    config.scenario = smallSpec();
    config.accel = 0.0;
    config.queue_capacity = 2;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    // A burst at one instant outruns a consumer that plans each job
    // it pops, so a two-slot ring must refuse some offers.
    constexpr std::uint64_t kOffers = 20000;
    std::uint64_t refused = 0;
    for (std::uint64_t i = 0; i < kOffers; ++i) {
        const Status status =
            d.submit({static_cast<JobId>(i), 0, 600, 1});
        if (status.isOk())
            continue;
        ++refused;
        ASSERT_EQ(status.code(), ErrorCode::ResourceExhausted)
            << status.toString();
        ASSERT_NE(status.message().find("2 slots"), std::string::npos)
            << status.message();
    }
    EXPECT_GE(refused, 1u);

    const ServeStats stats = d.stats();
    EXPECT_EQ(stats.rejected_full, refused);
    EXPECT_EQ(stats.accepted + stats.rejected_full, kOffers);
    Result<SimulationResult> result = d.drain();
    ASSERT_TRUE(result.isOk()) << result.status().toString();
    EXPECT_EQ(result->outcomes.size(), stats.accepted);
}

TEST(ServeDaemon, CountsCarbonSourceAvailabilityEdges)
{
    ServeConfig config;
    config.scenario = smallSpec();
    Result<FaultSpec> fault =
        FaultSpec::parse("outage:rate=0.3,hours=2");
    ASSERT_TRUE(fault.isOk()) << fault.status().toString();
    config.scenario.fault = *fault;
    config.accel = 0.0;
    Result<std::unique_ptr<ServeDaemon>> daemon =
        ServeDaemon::start(config);
    ASSERT_TRUE(daemon.isOk()) << daemon.status().toString();
    ServeDaemon &d = **daemon;

    const obs::Counter &updates = obs::counter("serve.source_updates");
    const std::uint64_t before = updates.value();

    // Unpaced, the consumer ticks to the release horizon after each
    // release. Waiting for that tick before the next offer makes the
    // tick instants exactly the new horizons, so the edges the
    // consumer sees can be replayed here from the fault oracle.
    const FaultInjector faults(*fault);
    bool available = true;
    std::uint64_t expected = 0;
    std::uint64_t offered = 0;
    Seconds now = 0;
    for (const Job &job : d.calibrationTrace().jobs()) {
        submitBlocking(d, job);
        ++offered;
        if (job.submit - 1 > now) {
            now = job.submit - 1;
            const bool up = !faults.outageAt(now);
            if (up != available) {
                available = up;
                ++expected;
            }
        }
        waitForStats(d, [&](const ServeStats &s) {
            return s.released == offered && s.sim_now >= now;
        });
    }
    ASSERT_TRUE(d.drain().isOk());

    EXPECT_GT(expected, 0u);
    EXPECT_EQ(updates.value() - before, expected);
}

} // namespace
} // namespace gaia::serve
