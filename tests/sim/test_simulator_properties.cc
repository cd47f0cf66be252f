/** @file Cross-policy/strategy invariant sweeps for the simulator. */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <utility>

#include "common/rng.h"
#include "core/policy_factory.h"
#include "sim/simulator.h"
#include "tests/common/sim_test_util.h"
#include "trace/region_model.h"
#include "workload/elastic_profile.h"

namespace gaia {
namespace {

JobTrace
randomTrace(std::uint64_t seed, std::size_t count = 60)
{
    Rng rng(seed);
    std::vector<Job> jobs;
    jobs.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
        Job j;
        j.id = static_cast<JobId>(i);
        j.submit = rng.uniformInt(0, 4 * kSecondsPerDay);
        j.length = rng.uniformInt(10 * kSecondsPerMinute,
                                  18 * kSecondsPerHour);
        j.cpus = static_cast<int>(rng.uniformInt(1, 6));
        jobs.push_back(j);
    }
    return JobTrace("random", std::move(jobs));
}

/** A South Australia fortnight whose first two hours are its
 *  cleanest, so jobs submitted at t=0 start at once. */
CarbonTrace
cleanOpeningTrace()
{
    std::vector<double> hourly =
        makeRegionTrace(Region::SouthAustralia, 24 * 14, 41).values();
    hourly[0] = hourly[1] = 1.0;
    return CarbonTrace("SA-AU", std::move(hourly));
}

/**
 * One spot-res cell over `cis` whose carbon takes every branch of
 * the per-slice rule: a 45-minute start-up overhead that the first
 * slices of jobs submitted at t=0 start inside (so it is clipped at
 * t=0), spot evictions, and with an elastic `profile` gangs wider
 * than one instance.
 */
SimulationResult
carbonCell(const CarbonInfoSource &cis, const std::string &policy,
           const std::string &profile = "")
{
    std::vector<Job> jobs = randomTrace(17, 80).jobs();
    for (int i = 0; i < 6; ++i)
        jobs.push_back({100 + i, 60 * i, hours(1) + 600 * i, 1 + i % 3});
    const JobTrace trace("carbon-cell", std::move(jobs));
    QueueConfig queues = QueueConfig::standardShortLong();
    queues.calibrateAverages(trace);
    const PolicyPtr p = makePolicy(policy);
    const ElasticProfile elastic =
        profile.empty() ? ElasticProfile{}
                        : parseElasticProfile(profile).value();

    SimulationSetup setup;
    setup.trace = &trace;
    setup.policy = p.get();
    setup.queues = &queues;
    setup.cis = &cis;
    setup.cluster.reserved_cores = 6;
    setup.cluster.spot_eviction_rate = 0.3;
    setup.cluster.spot_max_length = hours(4);
    setup.cluster.startup_overhead = minutes(45);
    setup.strategy = ResourceStrategy::SpotReserved;
    setup.elastic = profile.empty() ? nullptr : &elastic;
    return simulateChecked(setup).value();
}

/** Slices of `r` that pay a start-up overhead reaching before t=0. */
std::size_t
clippedOverheads(const SimulationResult &r)
{
    std::size_t clipped = 0;
    for (const JobOutcome &o : r.outcomes) {
        for (const PlacedSegment seg : r.placements(o))
            clipped += seg.option != PurchaseOption::Reserved &&
                       seg.start() < r.startup_overhead;
    }
    return clipped;
}

TEST(SimCarbon, AResultOutlivesItsTraceSourceAndEngine)
{
    // A result carries the trace it was accounted against, so its
    // derived carbon reads the same once the trace, the carbon source
    // and the engine that made it are gone (under ASan, a result that
    // referred to any of them would read freed memory here).
    for (const auto &[policy, profile] :
         {std::pair<std::string, std::string>{"Wait-Awhile", ""},
          {"Carbon-Scaler", "linear:max=4"}}) {
        SimulationResult r;
        std::uint64_t fingerprint = 0;
        std::vector<double> grams;
        {
            const CarbonTrace carbon = cleanOpeningTrace();
            const CarbonInfoService cis(carbon);
            r = carbonCell(cis, policy, profile);
            fingerprint = resultFingerprint(r);
            for (const JobOutcome &o : r.outcomes)
                grams.push_back(r.carbonGrams(o));
        }
        EXPECT_EQ(resultFingerprint(r), fingerprint) << policy;
        ASSERT_EQ(r.outcomes.size(), grams.size());
        for (std::size_t i = 0; i < grams.size(); ++i)
            EXPECT_EQ(r.carbonGrams(r.outcomes[i]), grams[i])
                << policy << " job " << r.job(r.outcomes[i]).id;

        // The cell took the branches it is meant to cover.
        EXPECT_GT(r.eviction_count, 0u) << policy;
        EXPECT_GT(clippedOverheads(r), 0u) << policy;
        const bool wide = std::any_of(
            r.segment_widths.begin(), r.segment_widths.end(),
            [](std::uint8_t width) { return width > 1; });
        EXPECT_EQ(wide, !profile.empty()) << policy;
    }
}

TEST(SimCarbon, PerJobCarbonAddsUpToTheTotalBitwise)
{
    // With no idle power, carbon_kg is the per-job carbon summed in
    // outcome order, so the derived figures must reproduce it to the
    // bit, on a fixed-width run and on an elastic one.
    const CarbonTrace carbon = cleanOpeningTrace();
    const CarbonInfoService cis(carbon);
    for (const auto &[policy, profile] :
         {std::pair<std::string, std::string>{"Wait-Awhile", ""},
          {"Carbon-Scaler", "linear:max=4"}}) {
        const SimulationResult r = carbonCell(cis, policy, profile);
        ASSERT_EQ(r.idle_carbon_kg, 0.0);
        double kg = 0.0;
        for (const JobOutcome &o : r.outcomes)
            kg += r.carbonGrams(o) / 1000.0;
        EXPECT_EQ(kg, r.carbon_kg) << policy;
        EXPECT_GT(clippedOverheads(r), 0u) << policy;
    }
}

using Case = std::tuple<std::string, ResourceStrategy>;

class SimInvariants : public ::testing::TestWithParam<Case>
{
  public:
    static std::string
    caseName(const ::testing::TestParamInfo<Case> &info)
    {
        std::string name = std::get<0>(info.param) + "_" +
                           strategyName(std::get<1>(info.param));
        for (char &c : name)
            if (c == '-')
                c = '_';
        return name;
    }
};

TEST_P(SimInvariants, EveryRunSatisfiesGlobalInvariants)
{
    const auto &[policy_name, strategy] = GetParam();
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 14, 21);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(42);
    queues.calibrateAverages(trace);

    ClusterConfig cluster;
    cluster.reserved_cores =
        strategy == ResourceStrategy::OnDemandOnly ? 0 : 20;
    cluster.spot_eviction_rate = 0.1;

    const PolicyPtr policy = makePolicy(policy_name);
    const SimulationResult r =
        testutil::runSim(trace, *policy, queues, cis, cluster, strategy);

    ASSERT_EQ(r.outcomes.size(), trace.jobCount());

    double variable = 0.0, carbon_g = 0.0;
    for (const JobOutcome &o : r.outcomes) {
        // Useful work, every slice after the lost ones, equals the
        // job length.
        Seconds useful = 0;
        const SegmentRange segs = r.placements(o);
        for (const PlacedSegment seg : segs)
            EXPECT_GT(seg.end(), seg.start());
        for (std::size_t k = r.lostSlices(o); k < segs.size(); ++k)
            useful += segs[k].duration();
        const Job &job = r.job(o);
        EXPECT_EQ(useful, r.length(o));
        EXPECT_GE(r.waiting(o), 0);
        EXPECT_GE(r.start(o), job.submit);

        // Execution begins within the queue's waiting bound for
        // every non-suspend-resume policy (suspend-resume plans
        // bound total waiting instead; evictions may extend
        // completions but never the first start).
        const QueueSpec &queue = queues.queueFor(r.length(o));
        EXPECT_LE(r.start(o), job.submit + queue.max_wait)
            << "job " << job.id;

        variable += r.variableCost(o);
        carbon_g += r.carbonGrams(o);

        // Recompute carbon from segments independently.
        double expected_carbon = 0.0;
        for (const PlacedSegment &seg : r.placements(o)) {
            expected_carbon += carbon.gramsFor(
                seg.start(), seg.end(),
                cluster.energy.kilowatts(job.cpus));
        }
        EXPECT_NEAR(r.carbonGrams(o), expected_carbon, 1e-6);
    }

    // Cluster books match per-job books.
    EXPECT_NEAR(variable, r.on_demand_cost + r.spot_cost, 1e-6);
    EXPECT_NEAR(carbon_g / 1000.0, r.carbon_kg, 1e-9);

    // Usage split is exhaustive.
    double placed = 0.0;
    for (const JobOutcome &o : r.outcomes)
        for (const PlacedSegment &seg : r.placements(o))
            placed +=
                static_cast<double>(seg.duration()) * r.job(o).cpus;
    EXPECT_NEAR(placed,
                r.reserved_core_seconds + r.on_demand_core_seconds +
                    r.spot_core_seconds,
                1e-6);

    // The reserved pool is never oversubscribed at any instant.
    if (cluster.reserved_cores > 0) {
        std::map<Seconds, int> deltas;
        for (const JobOutcome &o : r.outcomes) {
            for (const PlacedSegment &seg : r.placements(o)) {
                if (seg.option != PurchaseOption::Reserved)
                    continue;
                deltas[seg.start()] += r.job(o).cpus;
                deltas[seg.end()] -= r.job(o).cpus;
            }
        }
        int in_use = 0;
        for (const auto &[t, d] : deltas) {
            in_use += d;
            EXPECT_LE(in_use, cluster.reserved_cores)
                << "oversubscribed at t=" << t;
        }
        EXPECT_EQ(in_use, 0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    PolicyStrategyMatrix, SimInvariants,
    ::testing::Combine(
        ::testing::Values("NoWait", "AllWait-Threshold",
                          "Wait-Awhile", "Ecovisor", "Lowest-Slot",
                          "Lowest-Window", "Carbon-Time"),
        ::testing::Values(ResourceStrategy::OnDemandOnly,
                          ResourceStrategy::HybridGreedy,
                          ResourceStrategy::ReservedFirst,
                          ResourceStrategy::SpotFirst,
                          ResourceStrategy::SpotReserved)),
    SimInvariants::caseName);

TEST(SimProperties, WaitingShrinksWithReservedCapacity)
{
    // Paper §4.2.3: "increasing the reserved instances for a
    // work-conserving policy always reduces waiting time."
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 14, 23);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(7, 120);
    queues.calibrateAverages(trace);
    const PolicyPtr policy = makePolicy("Carbon-Time");

    double previous_wait = 1e18;
    for (int reserved : {0, 5, 15, 40, 120}) {
        ClusterConfig cluster;
        cluster.reserved_cores = reserved;
        const SimulationResult r =
            testutil::runSim(trace, *policy, queues, cis, cluster,
                     ResourceStrategy::ReservedFirst);
        EXPECT_LE(r.meanWaitingHours(), previous_wait + 1e-9)
            << "R=" << reserved;
        previous_wait = r.meanWaitingHours();
    }
}

TEST(SimProperties, NoWaitIgnoresWaitingLimits)
{
    const CarbonTrace carbon =
        makeRegionTrace(Region::CaliforniaUS, 24 * 14, 29);
    const CarbonInfoService cis(carbon);
    const JobTrace trace = randomTrace(11);
    const PolicyPtr policy = makePolicy("NoWait");

    const QueueConfig q1 = QueueConfig::standardShortLong(
        kSecondsPerHour, 2 * kSecondsPerHour);
    const QueueConfig q2 = QueueConfig::standardShortLong(
        12 * kSecondsPerHour, 48 * kSecondsPerHour);
    const SimulationResult a =
        testutil::runSim(trace, *policy, q1, cis);
    const SimulationResult b =
        testutil::runSim(trace, *policy, q2, cis);
    EXPECT_DOUBLE_EQ(a.carbon_kg, b.carbon_kg);
    EXPECT_DOUBLE_EQ(a.on_demand_cost, b.on_demand_cost);
    EXPECT_DOUBLE_EQ(a.meanWaitingHours(), 0.0);
    EXPECT_DOUBLE_EQ(b.meanWaitingHours(), 0.0);
}

TEST(SimProperties, CarbonAwarePoliciesSaveCarbonOnVariableGrids)
{
    const CarbonTrace carbon =
        makeRegionTrace(Region::SouthAustralia, 24 * 20, 31);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(13, 150);
    queues.calibrateAverages(trace);

    const double base =
        testutil::runSim(trace, *makePolicy("NoWait"), queues, cis)
            .carbon_kg;
    for (const char *name :
         {"Lowest-Slot", "Lowest-Window", "Carbon-Time",
          "Wait-Awhile", "Ecovisor"}) {
        const double c =
            testutil::runSim(trace, *makePolicy(name), queues, cis)
                .carbon_kg;
        EXPECT_LT(c, base) << name;
    }
}

TEST(SimProperties, EvictionStormStillCompletesEveryJob)
{
    // Failure injection: 100% hourly eviction with spot enabled for
    // everything short; all jobs must still finish exactly once.
    const CarbonTrace carbon =
        makeRegionTrace(Region::OntarioCanada, 24 * 14, 37);
    const CarbonInfoService cis(carbon);
    QueueConfig queues = QueueConfig::standardShortLong();
    const JobTrace trace = randomTrace(17, 100);
    queues.calibrateAverages(trace);

    ClusterConfig cluster;
    cluster.reserved_cores = 4;
    cluster.spot_eviction_rate = 1.0;
    cluster.spot_max_length = 2 * kSecondsPerHour;
    const SimulationResult r =
        testutil::runSim(trace, *makePolicy("Carbon-Time"), queues, cis,
                 cluster, ResourceStrategy::SpotReserved);
    ASSERT_EQ(r.outcomes.size(), trace.jobCount());
    std::size_t spot_jobs = 0;
    for (const JobOutcome &o : r.outcomes) {
        if (r.length(o) <= cluster.spot_max_length) {
            ++spot_jobs;
            EXPECT_EQ(r.evictions(o), 1);
        } else {
            EXPECT_EQ(r.evictions(o), 0);
        }
    }
    EXPECT_EQ(r.eviction_count, spot_jobs);
    EXPECT_GT(spot_jobs, 0u);
}

} // namespace
} // namespace gaia
