/**
 * @file
 * End-to-end tests for fault injection through the simulator: the
 * scheduler's degradation ladder, storm revocations, and the
 * determinism contract (same FaultSpec + seed => identical
 * fingerprint; disabled injector => identical to no injector).
 */

#include <gtest/gtest.h>

#include <vector>

#include "core/policy_factory.h"
#include "fault/faulty_source.h"
#include "fault/injector.h"
#include "sim/results.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"

namespace gaia {
namespace {

using testutil::oneQueue;
using testutil::flatTrace;
using testutil::fallingTrace;

SimulationResult
run(const JobTrace &trace, const std::string &policy,
    const QueueConfig &queues, const CarbonInfoSource &cis,
    const FaultInjector *faults, ClusterConfig cluster = {},
    ResourceStrategy strategy = ResourceStrategy::OnDemandOnly)
{
    const PolicyPtr p = makePolicy(policy);
    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = p.get();
    setup.queues = &queues;
    setup.cis = &cis;
    setup.cluster = cluster;
    setup.strategy = strategy;
    setup.faults = faults;
    Result<SimulationResult> result = simulateChecked(setup);
    EXPECT_TRUE(result.isOk()) << result.status().message();
    return std::move(result).value();
}

TEST(FaultSim, DisabledInjectorMatchesNoInjector)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(2), 1},
                               {2, hours(1), hours(3), 2},
                               {3, hours(4), minutes(30), 1}});
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.1;
    cluster.spot_max_length = hours(24);

    const SimulationResult plain =
        run(trace, "Lowest-Window", queues, cis, nullptr, cluster,
            ResourceStrategy::SpotFirst);
    const FaultInjector disabled{FaultSpec{}};
    const SimulationResult wired =
        run(trace, "Lowest-Window", queues, cis, &disabled,
            cluster, ResourceStrategy::SpotFirst);
    EXPECT_EQ(resultFingerprint(plain), resultFingerprint(wired));
}

TEST(FaultSim, SameSpecSameSeedIsBitIdentical)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    std::vector<Job> jobs;
    for (int i = 0; i < 20; ++i)
        jobs.push_back({i + 1, hours(i), hours(2), i % 3 + 1});
    const JobTrace trace("t", jobs);
    ClusterConfig cluster;
    cluster.spot_max_length = hours(24);

    FaultSpec spec;
    spec.outage_rate = 0.3;
    spec.storm_rate = 0.5;
    spec.straggler_rate = 0.5;

    const auto fingerprintFor = [&](const FaultSpec &s) {
        const FaultInjector injector(s);
        const FaultyCarbonSource faulty(cis, injector);
        return resultFingerprint(
            run(trace, "Lowest-Window", queues, faulty, &injector,
                cluster, ResourceStrategy::SpotFirst));
    };
    const std::uint64_t first = fingerprintFor(spec);
    const std::uint64_t second = fingerprintFor(spec);
    EXPECT_EQ(first, second);

    FaultSpec reseeded = spec;
    reseeded.seed = 2;
    EXPECT_NE(fingerprintFor(reseeded), first);
}

TEST(FaultSim, OutageDegradesToCarbonObliviousPlan)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(1), 1}});

    const SimulationResult nowait =
        run(trace, "NoWait", queues, cis, nullptr);
    const SimulationResult aware =
        run(trace, "Lowest-Window", queues, cis, nullptr);
    // Falling intensity: the carbon-aware policy waits and saves.
    ASSERT_GT(aware.waiting(aware.outcomes[0]), 0);
    ASSERT_LT(aware.carbon_kg, nowait.carbon_kg);

    FaultSpec spec;
    spec.outage_rate = 1.0;
    spec.cis_max_retries = 0;
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(cis, injector);
    const SimulationResult degraded =
        run(trace, "Lowest-Window", queues, faulty, &injector);
    // Source down for the whole run: the ladder bottoms out at the
    // NoWait fallback — start immediately, carbon as NoWait.
    EXPECT_EQ(degraded.waiting(degraded.outcomes[0]), 0);
    EXPECT_DOUBLE_EQ(degraded.carbon_kg, nowait.carbon_kg);
}

TEST(FaultSim, RetriesBackOffExponentiallyThenDegrade)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(12));
    const JobTrace trace("t", {{1, 0, hours(1), 1}});

    FaultSpec spec;
    spec.outage_rate = 1.0;
    spec.cis_max_retries = 2;
    spec.cis_retry_backoff = hours(1);
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(cis, injector);
    const SimulationResult r =
        run(trace, "NoWait", queues, faulty, &injector);
    const JobOutcome &o = r.outcomes[0];
    // Probes at +1h and +3h (1h then 2h backoff), both find the
    // source still down, so the job degrades and starts at 3h. The
    // stall counts as waiting against the original submit.
    EXPECT_EQ(r.job(o).submit, 0);
    EXPECT_EQ(r.start(o), hours(3));
    EXPECT_EQ(r.waiting(o), hours(3));
    EXPECT_EQ(r.finish(o), hours(4));
}

TEST(FaultSim, SchedulerRecoversWhereTheSourceIsUp)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));

    FaultSpec spec;
    spec.outage_rate = 0.5;
    spec.outage_duration = hours(1);
    spec.cis_max_retries = 0;
    const FaultInjector injector(spec);
    // Find one hour with the source down and one with it up.
    Seconds down = -1, up = -1;
    for (SlotIndex h = 0; h < 200 && (down < 0 || up < 0); ++h) {
        if (injector.outageAt(slotStart(h)) && down < 0)
            down = slotStart(h);
        if (!injector.outageAt(slotStart(h)) && up < 0)
            up = slotStart(h);
    }
    ASSERT_GE(down, 0);
    ASSERT_GE(up, 0);

    const FaultyCarbonSource faulty(cis, injector);
    const auto startDelayFor = [&](Seconds submit) {
        const JobTrace trace("t", {{1, submit, hours(1), 1}});
        const SimulationResult r =
            run(trace, "Lowest-Window", queues, faulty, &injector);
        return r.waiting(r.outcomes[0]);
    };
    // Down instant: degraded NoWait fallback, no waiting. Up
    // instant: normal carbon-aware planning resumes — falling
    // intensity makes the policy wait.
    EXPECT_EQ(startDelayFor(down), 0);
    EXPECT_GT(startDelayFor(up), 0);
}

TEST(FaultSim, StormRevokesBackToBackThenFallsToOnDemand)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(2), 1}});
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.0; // storms only
    cluster.spot_max_length = hours(24);

    FaultSpec spec;
    spec.storm_rate = 1.0;
    spec.storm_spot_retries = 2;
    const FaultInjector injector(spec);
    const Seconds strike = injector.firstStormIn(0, hours(1));
    ASSERT_GE(strike, 0);

    const SimulationResult r =
        run(trace, "NoWait", queues, cis, &injector, cluster,
            ResourceStrategy::SpotFirst);
    const JobOutcome &o = r.outcomes[0];
    // Initial slice revoked at the strike, both spot re-attempts
    // revoked on the spot (the storm covers their start), then the
    // on-demand restart completes the job.
    EXPECT_EQ(r.evictions(o), 3);
    EXPECT_EQ(r.eviction_count, 3u);
    EXPECT_EQ(r.finish(o), strike + hours(2));
}

TEST(FaultSim, StormAtSliceEndDoesNotRevoke)
{
    // Satellite boundary case: a storm striking exactly when the
    // slice ends (half-open interval) must not revoke a job that
    // already completed.
    FaultSpec spec;
    spec.storm_rate = 1.0;
    spec.storm_spot_retries = 0;
    Seconds strike = -1;
    for (std::uint64_t seed = 1; seed < 500; ++seed) {
        spec.seed = seed;
        const FaultInjector probe(spec);
        strike = probe.firstStormIn(0, hours(1));
        if (strike >= 1800)
            break;
    }
    ASSERT_GE(strike, 1800);
    const FaultInjector injector(spec);

    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    // Job ends at 1800 <= strike: the revocation lands at or after
    // the slice end and must leave the outcome untouched.
    const JobTrace trace("t", {{1, 0, 1800, 1}});
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.0;
    cluster.spot_max_length = hours(24);
    const SimulationResult r =
        run(trace, "NoWait", queues, cis, &injector, cluster,
            ResourceStrategy::SpotFirst);
    const JobOutcome &o = r.outcomes[0];
    EXPECT_EQ(r.evictions(o), 0);
    EXPECT_EQ(r.finish(o), 1800);
    ASSERT_EQ(r.placements(o).size(), 1u);
    EXPECT_EQ(r.lostSlices(o), 0u);
}

TEST(FaultSim, StragglersStretchAndDelaysShiftArrivals)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const JobTrace trace("t", {{1, 0, hours(1), 1}});

    FaultSpec stretch;
    stretch.straggler_rate = 1.0;
    stretch.straggler_factor = 2.0;
    const FaultInjector stretcher(stretch);
    const SimulationResult slow =
        run(trace, "NoWait", queues, cis, &stretcher);
    EXPECT_EQ(slow.length(slow.outcomes[0]), hours(2));
    EXPECT_EQ(slow.finish(slow.outcomes[0]), hours(2));

    FaultSpec late;
    late.delay_rate = 1.0;
    late.delay_duration = minutes(30);
    const FaultInjector delayer(late);
    const SimulationResult delayed =
        run(trace, "NoWait", queues, cis, &delayer);
    // The job reaches the scheduler half an hour late; the stall
    // counts as waiting against the user-visible submit.
    EXPECT_EQ(delayed.job(delayed.outcomes[0]).submit, 0);
    EXPECT_EQ(delayed.start(delayed.outcomes[0]), minutes(30));
    EXPECT_EQ(delayed.waiting(delayed.outcomes[0]), minutes(30));
}

} // namespace
} // namespace gaia
