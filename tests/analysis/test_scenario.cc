/** @file Tests for ScenarioSpec and the content-keyed AssetCache. */

#include "analysis/scenario.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <vector>

#include "analysis/harness.h"
#include "analysis/parallel.h"
#include "common/time.h"
#include "core/cis.h"
#include "sim/results.h"

namespace gaia {
namespace {

WorkloadSpec
tinyWorkload(std::uint64_t seed = 1)
{
    TraceBuildOptions opt;
    opt.job_count = 50;
    opt.span = kSecondsPerDay;
    opt.seed = seed;
    return WorkloadSpec::builtin(WorkloadSource::AlibabaPai, opt);
}

TEST(WorkloadSpec, KeysSeparateKindsAndParameters)
{
    const WorkloadSpec a = tinyWorkload(1);
    const WorkloadSpec b = tinyWorkload(1);
    const WorkloadSpec c = tinyWorkload(2);
    EXPECT_EQ(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
    EXPECT_NE(WorkloadSpec::week(1).key(),
              WorkloadSpec::motivating(kSecondsPerDay, 1).key());
    EXPECT_NE(WorkloadSpec::fromCsv("x.csv", false).key(),
              WorkloadSpec::fromCsv("x.csv", true).key());
}

TEST(WorkloadSpec, RealizeBuildsDeterministically)
{
    const JobTrace a = tinyWorkload().realize().value();
    const JobTrace b = tinyWorkload().realize().value();
    ASSERT_EQ(a.jobCount(), 50u);
    ASSERT_EQ(a.jobCount(), b.jobCount());
    EXPECT_EQ(a.job(0).submit, b.job(0).submit);
}

TEST(WorkloadSpec, MissingCsvIsError)
{
    const WorkloadSpec spec =
        WorkloadSpec::fromCsv("/nonexistent/jobs.csv");
    EXPECT_FALSE(spec.realize().isOk());
}

TEST(CarbonSpec, KeysSeparateRegionSeedAndSlots)
{
    const CarbonSpec a = CarbonSpec::forRegion(
        Region::SouthAustralia, 0, 1);
    const CarbonSpec b = CarbonSpec::forRegion(
        Region::SouthAustralia, 0, 2);
    EXPECT_NE(a.key(100), b.key(100));
    EXPECT_NE(a.key(100), a.key(200));
    EXPECT_EQ(a.key(100),
              CarbonSpec::forRegion(Region::SouthAustralia, 0, 1)
                  .key(100));
}

TEST(CarbonSpec, RealizeMatchesRegionModel)
{
    const CarbonSpec spec =
        CarbonSpec::forRegion(Region::CaliforniaUS, 0, 5);
    const CarbonTrace got = spec.realize(48).value();
    const CarbonTrace want =
        makeRegionTrace(Region::CaliforniaUS, 48, 5);
    ASSERT_EQ(got.slotCount(), 48u);
    EXPECT_DOUBLE_EQ(got.values()[7], want.values()[7]);
}

TEST(AssetCache, SameSpecSharesOneBuild)
{
    AssetCache cache;
    const auto first = cache.trace(tinyWorkload());
    const auto second = cache.trace(tinyWorkload());
    ASSERT_TRUE(first.isOk());
    ASSERT_TRUE(second.isOk());
    // Same content key -> the exact same object, built once.
    EXPECT_EQ(first.value().get(), second.value().get());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(AssetCache, DifferentSeedRebuilds)
{
    AssetCache cache;
    const auto a = cache.trace(tinyWorkload(1));
    const auto b = cache.trace(tinyWorkload(2));
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_NE(a.value().get(), b.value().get());
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 0u);
}

TEST(AssetCache, ErrorsAreCachedToo)
{
    AssetCache cache;
    const WorkloadSpec bad =
        WorkloadSpec::fromCsv("/nonexistent/jobs.csv");
    EXPECT_FALSE(cache.trace(bad).isOk());
    EXPECT_FALSE(cache.trace(bad).isOk());
    EXPECT_EQ(cache.misses(), 1u);
    EXPECT_EQ(cache.hits(), 1u);
}

TEST(AssetCache, QueuesBuildTheTraceOnDemand)
{
    AssetCache cache;
    const auto queues = cache.queues(
        tinyWorkload(), 6 * kSecondsPerHour, 24 * kSecondsPerHour);
    ASSERT_TRUE(queues.isOk());
    // One miss for the queues entry, one for the trace it needed.
    EXPECT_EQ(cache.misses(), 2u);
    // The trace is now shared with direct lookups.
    const auto trace = cache.trace(tinyWorkload());
    ASSERT_TRUE(trace.isOk());
    EXPECT_EQ(cache.hits(), 1u);

    // Different waits -> a different config, from the same
    // calibration: the trace and its J_avg are both hits.
    const auto other = cache.queues(
        tinyWorkload(), 1 * kSecondsPerHour, 12 * kSecondsPerHour);
    ASSERT_TRUE(other.isOk());
    EXPECT_NE(queues.value().get(), other.value().get());
    EXPECT_EQ(other.value()->queue(0).max_wait, hours(1));
    EXPECT_EQ(other.value()->queue(1).max_wait, hours(12));
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 3u);
}

TEST(AssetCache, EveryWaitingPairMatchesAFreshCalibration)
{
    // fig14's waiting pairs, plus the degenerate and the unequal-
    // bound corners, all served from one calibration.
    AssetCache cache;
    const WorkloadSpec spec = tinyWorkload(3);
    const JobTrace trace = spec.realize().value();
    std::size_t pairs = 0;
    for (const int w_short : {0, 1, 3, 6, 12, 18, 24}) {
        for (const int w_long : {0, 6, 12, 24, 36, 48, 72, 84}) {
            if (w_short > w_long)
                continue;
            const auto cached =
                cache.queues(spec, hours(w_short), hours(w_long));
            ASSERT_TRUE(cached.isOk());
            const QueueConfig fresh =
                calibratedQueues(trace, hours(w_short), hours(w_long));
            EXPECT_EQ(cached.value()->queues(), fresh.queues())
                << w_short << "x" << w_long;
            ++pairs;
        }
    }
    // One trace build and one calibration for every pair.
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2 * pairs - 2);
}

TEST(CarbonSlots, CoverHorizonPlusSlack)
{
    const JobTrace trace("t", {{1, 0, kSecondsPerDay, 1}});
    const std::size_t slots =
        carbonSlotsFor(trace, 24 * kSecondsPerHour);
    // Horizon (1 day) + long wait (1 day) + 2 days margin.
    EXPECT_GE(slots, 4u * 24u);
    EXPECT_LT(slots, 6u * 24u);
}

ScenarioSpec
tinyScenario()
{
    ScenarioSpec spec;
    spec.label = "tiny";
    spec.workload = tinyWorkload();
    spec.carbon =
        CarbonSpec::forRegion(Region::SouthAustralia, 0, 1);
    spec.policy = "Carbon-Time";
    return spec;
}

TEST(RunScenario, ProducesPlausibleResult)
{
    AssetCache cache;
    const Result<SimulationResult> r =
        runScenario(tinyScenario(), cache);
    ASSERT_TRUE(r.isOk()) << r.status().toString();
    EXPECT_EQ(r->outcomes.size(), 50u);
    EXPECT_GT(r->carbon_kg, 0.0);
    EXPECT_GT(r->totalCost(), 0.0);
}

TEST(RunScenario, IsDeterministicAcrossCaches)
{
    AssetCache cache1;
    AssetCache cache2;
    const SimulationResult a =
        runScenario(tinyScenario(), cache1).value();
    const SimulationResult b =
        runScenario(tinyScenario(), cache2).value();
    EXPECT_DOUBLE_EQ(a.carbon_kg, b.carbon_kg);
    EXPECT_DOUBLE_EQ(a.totalCost(), b.totalCost());
}

TEST(RunScenario, AResultOutlivesItsTraceCacheAndEngine)
{
    // A result shares its trace's job column instead of copying it,
    // so every per-job figure reads the same once the cache holding
    // the trace, the realized scenario and the engine are gone (under
    // ASan, a result that referred to any of them would read freed
    // memory here). A spot+reserved cell under carbon-source outages,
    // storms, stragglers and delays drives every per-job field.
    ScenarioSpec spec = tinyScenario();
    spec.strategy = ResourceStrategy::SpotReserved;
    spec.cluster.reserved_cores = 4;
    spec.cluster.spot_eviction_rate = 0.3;
    spec.cluster.spot_max_length = 4 * kSecondsPerHour;
    spec.fault =
        FaultSpec::parse("outage:rate=0.2,hours=2;storm:rate=0.05;"
                         "straggler:rate=0.3,factor=1.5;"
                         "delay:rate=0.2,minutes=20")
            .value();
    SimulationResult r;
    std::uint64_t fingerprint = 0;
    std::vector<Job> jobs;
    std::vector<double> grams;
    {
        AssetCache cache;
        r = runScenario(spec, cache).value();
        const std::shared_ptr<const JobTrace> trace =
            cache.trace(spec.workload).value();
        EXPECT_EQ(r.jobs, trace->sharedJobs());
        fingerprint = resultFingerprint(r);
        for (const JobOutcome &o : r.outcomes) {
            jobs.push_back(r.job(o));
            grams.push_back(r.carbonGrams(o));
        }
    }
    EXPECT_EQ(resultFingerprint(r), fingerprint);
    ASSERT_EQ(r.outcomes.size(), jobs.size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const JobOutcome &o = r.outcomes[i];
        EXPECT_EQ(r.job(o).id, jobs[i].id);
        EXPECT_EQ(r.job(o).submit, jobs[i].submit);
        EXPECT_EQ(r.job(o).cpus, jobs[i].cpus);
        EXPECT_EQ(r.carbonGrams(o), grams[i]) << "job " << jobs[i].id;
    }
    EXPECT_GT(r.eviction_count, 0u);
    EXPECT_TRUE(std::any_of(
        r.outcomes.begin(), r.outcomes.end(), [&](const JobOutcome &o) {
            return r.length(o) != r.job(o).length;
        }));
}

TEST(RunScenario, UnknownPolicyIsError)
{
    AssetCache cache;
    ScenarioSpec spec = tinyScenario();
    spec.policy = "Definitely-Not-A-Policy";
    const Result<SimulationResult> r = runScenario(spec, cache);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::NotFound);
}

TEST(RunScenario, BadWaitsAreError)
{
    AssetCache cache;
    ScenarioSpec spec = tinyScenario();
    spec.short_wait = 12 * kSecondsPerHour;
    spec.long_wait = 6 * kSecondsPerHour;
    EXPECT_FALSE(runScenario(spec, cache).isOk());
}

TEST(RunScenario, ForecastNoisePastTheCapIsError)
{
    // Carbon-Scaler's allocator once panicked when every forecast in
    // its window overflowed.
    AssetCache cache;
    ScenarioSpec spec = tinyScenario();
    spec.policy = "Carbon-Scaler";
    spec.elastic_profile = "linear:max=4";
    for (const double noise :
         {std::numeric_limits<double>::infinity(), 1e308, 100.5}) {
        spec.cis.noise = noise;
        const Result<SimulationResult> r = runScenario(spec, cache);
        ASSERT_FALSE(r.isOk()) << noise;
        EXPECT_NE(r.status().message().find("forecast noise"),
                  std::string::npos)
            << r.status().message();
    }
    spec.cis.noise = kMaxForecastNoise;
    EXPECT_TRUE(runScenario(spec, cache).isOk());
}

TEST(RunScenario, InvalidClusterSetupIsError)
{
    AssetCache cache;
    ScenarioSpec spec = tinyScenario();
    spec.strategy = ResourceStrategy::OnDemandOnly;
    spec.cluster.reserved_cores = 8;
    const Result<SimulationResult> r = runScenario(spec, cache);
    ASSERT_FALSE(r.isOk());
    EXPECT_NE(r.status().message().find("OnDemandOnly"),
              std::string::npos);
}

TEST(RunScenario, EmptyWorkloadIsFailedPrecondition)
{
    const std::string path =
        ::testing::TempDir() + "empty_jobs.csv";
    {
        std::ofstream out(path);
        out << "id,submit,length,cpus\n";
    }
    AssetCache cache;
    ScenarioSpec spec = tinyScenario();
    spec.workload = WorkloadSpec::fromCsv(path);
    const Result<SimulationResult> r = runScenario(spec, cache);
    ASSERT_FALSE(r.isOk());
    EXPECT_EQ(r.status().code(), ErrorCode::FailedPrecondition);
    std::remove(path.c_str());
}

TEST(AssetCache, ConcurrentLookupsBuildEachAssetOnce)
{
    AssetCache cache;
    const int kTasks = 8;
    const int kIters = 25;
    const int kSeeds = 4;

    parallelFor(
        kTasks,
        [&](std::size_t) {
            for (int i = 0; i < kIters; ++i) {
                const std::uint64_t seed = 1 + i % kSeeds;
                const auto trace =
                    cache.trace(tinyWorkload(seed));
                ASSERT_TRUE(trace.isOk());
                ASSERT_GT(trace.value()->jobs().size(), 0u);
                const auto queues = cache.queues(
                    tinyWorkload(seed), hours(6), hours(24));
                ASSERT_TRUE(queues.isOk());
            }
        },
        4);

    // Every lookup either hit or built; each distinct asset was
    // built exactly once despite the contention. queues() resolves
    // its trace through the cache too, so each iteration performs
    // three lookups.
    const std::size_t lookups =
        static_cast<std::size_t>(kTasks) * kIters * 3;
    EXPECT_EQ(cache.hits() + cache.misses(), lookups);
    EXPECT_EQ(cache.misses(),
              static_cast<std::size_t>(kSeeds) * 2);

    // Hammered and fresh caches agree on the built content.
    AssetCache fresh;
    const auto a = cache.trace(tinyWorkload(2));
    const auto b = fresh.trace(tinyWorkload(2));
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    EXPECT_EQ(a.value()->jobs().size(), b.value()->jobs().size());
}

} // namespace
} // namespace gaia
