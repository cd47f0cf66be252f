/**
 * @file
 * Fault injection composed with elastic (multi-instance) jobs: a
 * storm revoking a width-w gang retries all w instances, the
 * degraded ladder bills instance-hours (not wall-hours), and the
 * elastic path keeps the determinism contract.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/obs.h"
#include "core/policy_factory.h"
#include "fault/faulty_source.h"
#include "fault/injector.h"
#include "sim/results.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"
#include "workload/elastic_profile.h"

namespace gaia {
namespace {

using testutil::oneQueue;
using testutil::flatTrace;
using testutil::fallingTrace;

ElasticProfile
profileOf(const std::string &spec)
{
    Result<ElasticProfile> parsed = parseElasticProfile(spec);
    EXPECT_TRUE(parsed.isOk()) << parsed.status().message();
    return std::move(parsed).value();
}

SimulationResult
run(const JobTrace &trace, const std::string &policy,
    const QueueConfig &queues, const CarbonInfoSource &cis,
    const FaultInjector *faults, const ElasticProfile *elastic,
    ClusterConfig cluster = {},
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
    setup.elastic = elastic;
    Result<SimulationResult> result = simulateChecked(setup);
    EXPECT_TRUE(result.isOk()) << result.status().message();
    return std::move(result).value();
}

TEST(ElasticFaults, StormGangRetriesCountEveryInstance)
{
    const CarbonTrace carbon = flatTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    // Three hours of work at marginal rate 1.0 per instance: the
    // flat trace makes Carbon-Scaler run one slot at full width 3.
    const ElasticProfile profile = profileOf("linear:max=3");
    const JobTrace trace("t", {{1, 0, hours(3), 1}});
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.0; // storms only
    cluster.spot_max_length = hours(24);

    FaultSpec spec;
    spec.storm_rate = 1.0;
    spec.storm_spot_retries = 2;
    const FaultInjector injector(spec);
    const Seconds strike = injector.firstStormIn(0, hours(1));
    ASSERT_GE(strike, 0);

    const std::uint64_t retries_before =
        obs::counter("fault.spot_instance_retries").value();
    const SimulationResult r =
        run(trace, "Carbon-Scaler", queues, cis, &injector,
            &profile, cluster, ResourceStrategy::SpotFirst);
    const JobOutcome &o = r.outcomes[0];
    // Initial width-3 slice revoked at the strike, both spot
    // re-attempts revoked at their start (the storm covers it),
    // then the on-demand gang restart finishes in one hour.
    EXPECT_EQ(r.evictions(o), 3);
    EXPECT_EQ(r.finish(o), strike + hours(1));
    ASSERT_FALSE(r.placements(o).empty());
    EXPECT_EQ(r.placements(o).back().width, 3);
    EXPECT_EQ(r.lostSlices(o), r.placements(o).size() - 1);
    // Each gang retry re-acquires spot capacity per instance: two
    // retries at width 3 count six instance-level retries.
    EXPECT_EQ(
        obs::counter("fault.spot_instance_retries").value() -
            retries_before,
        6u);
}

TEST(ElasticFaults, DegradedElasticPlansBillInstanceHours)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const ElasticProfile profile = profileOf("linear:max=4");
    const JobTrace trace("t", {{1, 0, hours(4), 1}});

    FaultSpec spec;
    spec.outage_rate = 1.0;
    spec.cis_max_retries = 0;
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(cis, injector);

    const std::uint64_t slots_before =
        obs::counter("policy.degraded_slots").value();
    const std::uint64_t hours_before =
        obs::counter("policy.degraded_instance_hours").value();
    const SimulationResult r =
        run(trace, "Carbon-Scaler", queues, faulty, &injector,
            &profile);
    const JobOutcome &o = r.outcomes[0];
    // Source down for the whole run: the elastic ladder bottoms
    // out at the elastic NoWait analogue — start now at full
    // width, so four hours of work finish in one wall hour (and
    // waiting() reports the speedup as negative, as documented).
    EXPECT_EQ(r.start(o), 0);
    EXPECT_EQ(r.finish(o), hours(1));
    EXPECT_EQ(r.waiting(o), hours(1) - hours(4));
    ASSERT_EQ(r.placements(o).size(), 1u);
    EXPECT_EQ(r.placements(o)[0].width, 4);
    EXPECT_EQ(
        obs::counter("policy.degraded_slots").value() -
            slots_before,
        1u);
    // One wall-hour at width 4 bills four degraded instance-hours.
    EXPECT_EQ(
        obs::counter("policy.degraded_instance_hours").value() -
            hours_before,
        4u);
}

TEST(ElasticFaults, DisabledInjectorMatchesNoInjector)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const ElasticProfile profile =
        profileOf("diminishing:max=3,alpha=0.6");
    const JobTrace trace("t", {{1, 0, hours(2), 1},
                               {2, hours(1), hours(3), 2},
                               {3, hours(4), minutes(30), 1}});
    ClusterConfig cluster;
    cluster.spot_eviction_rate = 0.1;
    cluster.spot_max_length = hours(24);

    const SimulationResult plain =
        run(trace, "Carbon-Scaler", queues, cis, nullptr, &profile,
            cluster, ResourceStrategy::SpotFirst);
    const FaultInjector disabled{FaultSpec{}};
    const SimulationResult wired =
        run(trace, "Carbon-Scaler", queues, cis, &disabled,
            &profile, cluster, ResourceStrategy::SpotFirst);
    EXPECT_EQ(resultFingerprint(plain), resultFingerprint(wired));
}

TEST(ElasticFaults, SameSpecSameSeedIsBitIdentical)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    const ElasticProfile profile = profileOf("linear:max=3");
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
        return resultFingerprint(run(
            trace, "Carbon-Scaler", queues, faulty, &injector,
            &profile, cluster, ResourceStrategy::SpotFirst));
    };
    const std::uint64_t first = fingerprintFor(spec);
    EXPECT_EQ(fingerprintFor(spec), first);

    FaultSpec reseeded = spec;
    reseeded.seed = 2;
    EXPECT_NE(fingerprintFor(reseeded), first);
}

TEST(ElasticFaults, SegmentColumnKeepsItsInvariantsUnderStorms)
{
    const CarbonTrace carbon = fallingTrace();
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = oneQueue(hours(6));
    std::vector<Job> jobs;
    for (int i = 0; i < 40; ++i)
        jobs.push_back({i + 1, i * minutes(45), hours(2), i % 3 + 1});
    const JobTrace trace("t", jobs);
    ClusterConfig cluster;
    cluster.spot_max_length = hours(24);
    cluster.spot_eviction_rate = 0.1;

    // Back-to-back storm revocations with spot re-attempts, outages
    // and stragglers, on elastic gangs and on fixed-width jobs.
    FaultSpec spec;
    spec.outage_rate = 0.3;
    spec.storm_rate = 0.5;
    spec.straggler_rate = 0.5;
    spec.storm_spot_retries = 2;
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(cis, injector);
    const ElasticProfile elastic = profileOf("linear:max=3");
    const ElasticProfile fixed = profileOf("off");
    for (const ElasticProfile *profile : {&elastic, &fixed}) {
        const SimulationResult r =
            run(trace, profile == &elastic ? "Carbon-Scaler"
                                           : "Wait-Awhile",
                queues, faulty, &injector, profile, cluster,
                ResourceStrategy::SpotFirst);
        EXPECT_EQ(checkColumns(r).message(), "");
        EXPECT_GT(r.eviction_count, r.outcomes.size() / 4);
        EXPECT_TRUE(std::any_of(
            r.outcomes.begin(), r.outcomes.end(),
            [&r](const JobOutcome &o) { return r.evictions(o) > 1; }));
    }
}

} // namespace
} // namespace gaia
