/**
 * @file
 * Differential-testing oracle suite for the elastic-scaling family.
 *
 * The CarbonScaler greedy allocator (core/elastic.h) claims three
 * things, each pinned here against an independent reference:
 *
 *  1. On concave profiles its eligibility-ordered consumption equals
 *     the global flat-sort knapsack order, chunk for chunk — so the
 *     two allocators must produce *bitwise identical* allocations
 *     (planElasticFlatSort in tests/common/reference_oracles.h).
 *  2. Its cost is the fractional-knapsack optimum: no enumerated
 *     staircase allocation covering the same work is cheaper (up to
 *     the documented one-second rounding of the final chunk).
 *  3. With a disabled profile it degenerates to exactly Wait-Awhile:
 *     same deadline, same slot order, same partial-slot trim.
 *
 * Plus the property suite: work conservation, width bounds, the
 * waiting-window contract, never-worse-than-Elastic-NoWait, and
 * memoized-vs-direct window equality.
 */

#include "core/elastic.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.h"
#include "core/cis.h"
#include "core/plan_cache.h"
#include "core/policies.h"
#include "tests/common/reference_oracles.h"
#include "workload/elastic_profile.h"

namespace gaia {
namespace {

/** Random concave profile: linear, diminishing, or explicit list. */
ElasticProfile
randomConcaveProfile(Rng &rng)
{
    ElasticProfile profile;
    const int max = static_cast<int>(rng.uniformInt(2, 6));
    switch (rng.uniformInt(0, 2)) {
      case 0: // perfect scaling
        profile.marginal.assign(static_cast<std::size_t>(max), 1.0);
        break;
      case 1: { // geometric diminishing returns
        const double alpha = rng.uniform(0.3, 1.0);
        double rate = 1.0;
        for (int k = 0; k < max; ++k) {
            profile.marginal.push_back(rate);
            rate *= alpha;
        }
        break;
      }
      default: { // arbitrary non-increasing rates
        double rate = 1.0;
        for (int k = 0; k < max; ++k) {
            profile.marginal.push_back(rate);
            rate = rng.uniform(0.05, rate);
        }
        break;
      }
    }
    profile.min_instances =
        static_cast<int>(rng.uniformInt(1, std::min(max, 2)));
    EXPECT_TRUE(profile.concave());
    EXPECT_TRUE(profile.validate().isOk());
    return profile;
}

/** Window for `job` under the run profile `profile`; memoized only
 *  when given a cache. */
ElasticWindow
windowFor(const Job &job, const ElasticProfile &profile,
          const CarbonInfoService &cis, const QueueSpec &queue,
          PlanCache *cache = nullptr)
{
    PlanContext ctx{job.submit, &cis, &queue, cache, &profile};
    return makeElasticWindow(job, ctx);
}

TEST(ElasticOracle, GreedyMatchesFlatSortBitwiseOnConcaveProfiles)
{
    Rng rng(20240817);
    for (int t = 0; t < 200; ++t) {
        const CarbonTrace trace = randomTrace(
            rng, static_cast<std::size_t>(rng.uniformInt(8, 64)));
        const CarbonInfoService cis(trace);

        Job job;
        job.id = t;
        job.submit = rng.uniformInt(0, 12 * kSecondsPerHour);
        job.length = rng.uniformInt(600, 16 * kSecondsPerHour);
        const ElasticProfile profile = randomConcaveProfile(rng);
        const QueueSpec queue{
            "q", kSecondsPerDay,
            rng.uniformInt(0, 12 * kSecondsPerHour), 0};

        const ElasticWindow window =
            windowFor(job, profile, cis, queue);
        const ElasticAllocation greedy =
            planElasticGreedy(window, job.length);
        const ElasticAllocation reference =
            planElasticFlatSort(window, job.length);

        // Allocation identity, not value closeness: on concave
        // profiles the two consumption orders coincide exactly.
        ASSERT_TRUE(greedy == reference)
            << "instance " << t << " (submit " << job.submit
            << ", length " << job.length << ", profile "
            << profile.key() << ")";

        // And therefore so do the canonical values.
        const AllocationValue a = evaluateAllocation(window, greedy);
        const AllocationValue b =
            evaluateAllocation(window, reference);
        ASSERT_EQ(a.work, b.work);
        ASSERT_EQ(a.cost, b.cost);
    }
}

TEST(ElasticOracle, GreedyIsNoWorseThanEnumeratedStaircases)
{
    // Small instances, integer intensities, binary-exact marginal
    // rates (1, 1/2): every enumerated grid allocation's value is
    // exact in doubles, so the optimality margin is purely the
    // greedy's documented final-chunk rounding (at most one second
    // of extra work, bought at some chunk's ratio).
    Rng rng(77);
    ElasticProfile profile;
    profile.marginal = {1.0, 0.5};

    for (int t = 0; t < 40; ++t) {
        std::vector<double> values;
        for (std::size_t s = 0; s < 4; ++s)
            values.push_back(
                static_cast<double>(rng.uniformInt(1, 40)));
        const CarbonTrace trace("tiny", std::move(values));
        const CarbonInfoService cis(trace);

        Job job;
        job.id = t;
        job.submit = 0;
        // Sized so the window never exceeds 3 slots (the grid
        // enumeration below is exponential in the slot count):
        // deadline = wait + ceil(length / 1.5) <= 1h + 4800s.
        job.length = rng.uniformInt(1800, 2 * kSecondsPerHour);
        const Seconds wait = rng.uniformInt(0, kSecondsPerHour);
        const QueueSpec queue{"q", kSecondsPerDay, wait, 0};

        const ElasticWindow window =
            windowFor(job, profile, cis, queue);
        const ElasticAllocation greedy =
            planElasticGreedy(window, job.length);
        const AllocationValue got =
            evaluateAllocation(window, greedy);
        ASSERT_GE(got.work + 1e-6,
                  static_cast<double>(job.length));

        // Exhaustive staircases on a 900-second duration grid, plus
        // each slot's exact capacity (partial last slots would
        // otherwise be unreachable and the grid might not cover the
        // work at all).
        const int slot_count = window.slotCount();
        ASSERT_EQ(window.stepCount(), 2);
        struct SlotChoice
        {
            Seconds d0, d1;
        };
        std::vector<std::vector<SlotChoice>> choices(
            static_cast<std::size_t>(slot_count));
        for (int s = 0; s < slot_count; ++s) {
            const Seconds cap =
                window.slots[static_cast<std::size_t>(s)]
                    .capacity();
            std::vector<Seconds> grid;
            for (Seconds d = 0; d < cap; d += 900)
                grid.push_back(d);
            grid.push_back(cap);
            for (const Seconds d0 : grid)
                for (const Seconds d1 : grid)
                    if (d1 <= d0)
                        choices[static_cast<std::size_t>(s)]
                            .push_back({d0, d1});
        }

        double best_cost = -1.0;
        std::vector<std::size_t> pick(
            static_cast<std::size_t>(slot_count), 0);
        while (true) {
            ElasticAllocation alloc(slot_count, 2);
            for (int s = 0; s < slot_count; ++s) {
                const SlotChoice &c =
                    choices[static_cast<std::size_t>(s)]
                           [pick[static_cast<std::size_t>(s)]];
                alloc.at(s, 0) = c.d0;
                alloc.at(s, 1) = c.d1;
            }
            const AllocationValue v =
                evaluateAllocation(window, alloc);
            if (v.work + 1e-9 >= static_cast<double>(job.length) &&
                (best_cost < 0.0 || v.cost < best_cost))
                best_cost = v.cost;
            // Odometer over per-slot choices.
            int s = 0;
            for (; s < slot_count; ++s) {
                auto &p = pick[static_cast<std::size_t>(s)];
                if (++p <
                    choices[static_cast<std::size_t>(s)].size())
                    break;
                p = 0;
            }
            if (s == slot_count)
                break;
        }
        ASSERT_GE(best_cost, 0.0) << "no covering grid allocation";

        // Rounding margin: at most one extra second of the densest
        // (cost-per-second) chunk.
        double margin = 0.0;
        for (int s = 0; s < slot_count; ++s)
            for (int k = 0; k < 2; ++k)
                margin = std::max(
                    margin,
                    window.slots[static_cast<std::size_t>(s)].ci *
                        window.step_instances
                            [static_cast<std::size_t>(k)]);
        EXPECT_LE(got.cost, best_cost + margin)
            << "instance " << t;
    }
}

TEST(ElasticOracle, DisabledProfileDegeneratesToWaitAwhile)
{
    // A Carbon-Scaler plan for a fixed-width job must be Wait-Awhile
    // bit for bit: same slots, same order, same partial-slot trim.
    Rng rng(404);
    const CarbonScalerPolicy scaler;
    const WaitAwhilePolicy reference;
    for (int t = 0; t < 50; ++t) {
        const CarbonTrace trace = randomTrace(
            rng, static_cast<std::size_t>(rng.uniformInt(8, 72)));
        const CarbonInfoService cis(trace);
        Job job;
        job.id = t;
        job.submit = rng.uniformInt(0, 12 * kSecondsPerHour);
        job.length = rng.uniformInt(60, 10 * kSecondsPerHour);
        const QueueSpec queue{
            "q", kSecondsPerDay,
            rng.uniformInt(0, 18 * kSecondsPerHour), 0};
        const PlanContext ctx{job.submit, &cis, &queue};

        const SchedulePlan a = scaler.plan(job, ctx);
        const SchedulePlan b = reference.plan(job, ctx);
        ASSERT_EQ(a.segments().size(), b.segments().size())
            << "instance " << t;
        for (std::size_t i = 0; i < a.segments().size(); ++i) {
            ASSERT_EQ(a.segments()[i].start, b.segments()[i].start)
                << "instance " << t << " segment " << i;
            ASSERT_EQ(a.segments()[i].end, b.segments()[i].end)
                << "instance " << t << " segment " << i;
            ASSERT_EQ(a.segments()[i].width, 1);
        }
    }
}

TEST(ElasticOracle, PropertiesHoldOnRandomConcaveInstances)
{
    Rng rng(99173);
    for (int t = 0; t < 120; ++t) {
        const CarbonTrace trace = randomTrace(
            rng, static_cast<std::size_t>(rng.uniformInt(8, 64)));
        const CarbonInfoService cis(trace);
        Job job;
        job.id = t;
        job.submit = rng.uniformInt(0, 10 * kSecondsPerHour);
        job.length = rng.uniformInt(600, 12 * kSecondsPerHour);
        const ElasticProfile profile = randomConcaveProfile(rng);
        const Seconds wait =
            rng.uniformInt(0, 10 * kSecondsPerHour);
        const QueueSpec queue{"q", kSecondsPerDay, wait, 0};

        const ElasticWindow window =
            windowFor(job, profile, cis, queue);
        const ElasticAllocation alloc =
            planElasticGreedy(window, job.length);
        const AllocationValue value =
            evaluateAllocation(window, alloc);

        // Work conservation: all of the job's work is delivered,
        // with at most the documented whole-second overshoot.
        ASSERT_GE(value.work + 1e-6,
                  static_cast<double>(job.length));
        ASSERT_LT(value.work,
                  static_cast<double>(job.length) +
                      2.0 * profile.maxThroughput() + 1e-6);

        // Width bounds and the waiting-window contract.
        const SchedulePlan plan = allocationToPlan(window, alloc);
        ASSERT_LE(plan.maxWidth(), profile.maxInstances());
        for (const RunSegment &seg : plan.segments())
            ASSERT_GE(seg.width, profile.min_instances);
        ASSERT_GE(plan.plannedStart(), job.submit);
        ASSERT_LE(plan.plannedStart(), job.submit + wait)
            << "instance " << t << " missed the waiting window";

        // Never worse than Elastic-NoWait: express the max-width
        // run-immediately schedule as an in-window allocation and
        // compare through the one canonical evaluator.
        const auto duration = static_cast<Seconds>(
            std::ceil(static_cast<double>(job.length) /
                      profile.maxThroughput()));
        ElasticAllocation nowait(window.slotCount(),
                                 window.stepCount());
        const Seconds finish = job.submit + duration;
        for (int s = 0; s < window.slotCount(); ++s) {
            const SlotWindow &slot =
                window.slots[static_cast<std::size_t>(s)];
            const Seconds overlap =
                std::min(slot.to, finish) -
                std::max(slot.from, job.submit);
            if (overlap <= 0)
                continue;
            for (int k = 0; k < window.stepCount(); ++k)
                nowait.at(s, k) = overlap;
        }
        const AllocationValue base =
            evaluateAllocation(window, nowait);
        ASSERT_GE(base.work + 1e-6,
                  static_cast<double>(job.length));
        double margin = 0.0;
        for (int s = 0; s < window.slotCount(); ++s)
            for (int k = 0; k < window.stepCount(); ++k)
                margin = std::max(
                    margin,
                    window.slots[static_cast<std::size_t>(s)].ci *
                        window.step_instances
                            [static_cast<std::size_t>(k)]);
        ASSERT_LE(value.cost, base.cost + margin)
            << "greedy lost to Elastic-NoWait on instance " << t;
    }
}

TEST(ElasticOracle, MemoizedWindowsMatchDirectBitwise)
{
    // As in a simulation, one cache serves jobs submitted in time
    // order across several slots. Under noisy forecasts a later
    // job's arrival slot may already sit in the table as a forecast,
    // while the job itself reads it as measured truth.
    Rng rng(5150);
    for (int t = 0; t < 60; ++t) {
        const CarbonTrace trace = randomTrace(
            rng, static_cast<std::size_t>(rng.uniformInt(8, 48)));
        const double noise = t % 2 == 0 ? 0.0 : 0.3;
        const CarbonInfoService cis(trace, noise,
                                    static_cast<std::uint64_t>(t));
        ASSERT_TRUE(cis.slotInvariantForecasts());
        const QueueSpec queue{
            "q", kSecondsPerDay,
            rng.uniformInt(0, 8 * kSecondsPerHour), 0};

        PlanCache cache;
        Seconds submit = rng.uniformInt(0, kSecondsPerHour - 1);
        for (int j = 0; j < 6; ++j) {
            Job job;
            job.id = j;
            job.submit = submit;
            job.length = rng.uniformInt(600, 8 * kSecondsPerHour);
            const ElasticProfile profile = randomConcaveProfile(rng);

            const ElasticWindow direct =
                windowFor(job, profile, cis, queue);
            const ElasticWindow memo =
                windowFor(job, profile, cis, queue, &cache);
            // Twice: the second call replays the cached slot table.
            const ElasticWindow replay =
                windowFor(job, profile, cis, queue, &cache);

            ASSERT_EQ(direct.slotCount(), memo.slotCount());
            for (int s = 0; s < direct.slotCount(); ++s) {
                const auto &d =
                    direct.slots[static_cast<std::size_t>(s)];
                const auto &m =
                    memo.slots[static_cast<std::size_t>(s)];
                const auto &r =
                    replay.slots[static_cast<std::size_t>(s)];
                ASSERT_EQ(d.ci, m.ci)
                    << "instance " << t << " job " << j << " slot "
                    << s << " noise " << noise;
                ASSERT_EQ(d.ci, r.ci)
                    << "instance " << t << " job " << j << " slot "
                    << s << " noise " << noise;
            }
            ASSERT_TRUE(planElasticGreedy(direct, job.length) ==
                        planElasticGreedy(memo, job.length));
            // Sometimes the same slot, sometimes a few slots later.
            submit += rng.uniformInt(0, 3 * kSecondsPerHour);
        }
        EXPECT_GT(cache.hits(), 0u);
    }
}

TEST(ElasticOracle, NonConcaveProfilesStillProduceValidPlans)
{
    // The bit-exact oracle only covers concave profiles (where the
    // greedy is provably optimal); non-concave ones must still
    // produce work-covering, width-valid staircase plans.
    ElasticProfile bumpy;
    bumpy.marginal = {1.0, 0.2, 0.8, 0.1};
    ASSERT_FALSE(bumpy.concave());
    ASSERT_TRUE(bumpy.validate().isOk());

    const CarbonTrace trace(
        "bump", {300.0, 50.0, 400.0, 20.0, 250.0, 90.0});
    const CarbonInfoService cis(trace);
    Job job;
    job.id = 1;
    job.submit = 1800;
    job.length = 3 * kSecondsPerHour;
    const QueueSpec queue{"q", kSecondsPerDay, hours(2), 0};

    const ElasticWindow window = windowFor(job, bumpy, cis, queue);
    const ElasticAllocation alloc =
        planElasticGreedy(window, job.length);
    const AllocationValue value = evaluateAllocation(window, alloc);
    EXPECT_GE(value.work + 1e-6, static_cast<double>(job.length));

    const SchedulePlan plan = allocationToPlan(window, alloc);
    EXPECT_LE(plan.maxWidth(), bumpy.maxInstances());
    EXPECT_GE(plan.plannedStart(), job.submit);
    EXPECT_LE(plan.plannedStart(), job.submit + hours(2));
}

TEST(ElasticProfileParser, GrammarRoundTrips)
{
    EXPECT_TRUE(parseElasticProfile("").isOk());
    EXPECT_TRUE(parseElasticProfile("off").isOk());
    EXPECT_FALSE(parseElasticProfile("off").value().enabled());

    const ElasticProfile linear =
        parseElasticProfile("linear:max=4").value();
    EXPECT_EQ(linear.maxInstances(), 4);
    EXPECT_EQ(linear.maxThroughput(), 4.0);
    EXPECT_TRUE(linear.concave());

    const ElasticProfile dim =
        parseElasticProfile("diminishing:max=3,alpha=0.5,min=2")
            .value();
    EXPECT_EQ(dim.min_instances, 2);
    EXPECT_EQ(dim.marginal.size(), 3u);
    EXPECT_EQ(dim.marginal[1], 0.5);
    EXPECT_EQ(dim.marginal[2], 0.25);

    const ElasticProfile list =
        parseElasticProfile("list:rates=1+0.5+0.25").value();
    EXPECT_TRUE(list.concave());
    EXPECT_EQ(list.maxThroughput(), 1.75);

    EXPECT_FALSE(parseElasticProfile("linear").isOk());
    EXPECT_FALSE(parseElasticProfile("linear:max=0").isOk());
    EXPECT_FALSE(parseElasticProfile("linear:max=100").isOk());
    // The cap is checked before the rates are built, so a huge max
    // is a Status, not a bad_alloc.
    for (const char *huge : {"linear:max=1000000000000",
                             "diminishing:max=1000000000000,alpha=0.5"}) {
        const Result<ElasticProfile> capped = parseElasticProfile(huge);
        ASSERT_FALSE(capped.isOk()) << huge;
        EXPECT_NE(capped.status().message().find("limit 64"),
                  std::string::npos)
            << capped.status().message();
    }
    EXPECT_FALSE(
        parseElasticProfile("diminishing:max=3,alpha=1.5").isOk());
    EXPECT_FALSE(parseElasticProfile("list:rates=0.5+1").isOk());
    EXPECT_FALSE(parseElasticProfile("linear:max=2,min=3").isOk());
    // 2^32 + 2 once wrapped to min=2.
    const Result<ElasticProfile> wrapped =
        parseElasticProfile("linear:max=4,min=4294967298");
    ASSERT_FALSE(wrapped.isOk());
    EXPECT_NE(wrapped.status().message().find(
                  "elastic min: 4294967298 is out of range"),
              std::string::npos)
        << wrapped.status().message();
    EXPECT_FALSE(parseElasticProfile("bogus:max=2").isOk());
}

} // namespace
} // namespace gaia
