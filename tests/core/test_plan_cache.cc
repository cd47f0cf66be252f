/** @file Tests for PlanCache: slot-table semantics, counters, and
 *  memoized-vs-direct policy equivalence. */

#include "core/plan_cache.h"

#include <span>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/time.h"
#include "core/cis.h"
#include "core/policies.h"
#include "tests/common/reference_oracles.h"

namespace gaia {
namespace {

TEST(PlanCache, MissesOnlyWhenALookupExtendsTheTable)
{
    PlanCache cache;
    EXPECT_EQ(cache.hits(), 0u);
    EXPECT_EQ(cache.misses(), 0u);
    const auto slot_value = [](Seconds b) {
        const double values[] = {9.0, 2.0, 5.0, 2.0, 7.0, 4.0};
        return values[b / kSecondsPerHour];
    };

    // The view starts at the key's first candidate.
    const std::span<const double> first =
        cache.startIntegrals({hours(1), 4, hours(2)}, slot_value);
    ASSERT_EQ(first.size(), 4u);
    EXPECT_EQ(first[0], 2.0);
    EXPECT_EQ(first[3], 7.0);
    EXPECT_EQ(cache.misses(), 1u);

    // Keys the table already covers are hits and never recompute,
    // whatever their start.
    const auto never = [](Seconds) -> double {
        ADD_FAILURE();
        return 0.0;
    };
    EXPECT_EQ(cache.startIntegrals({hours(1), 4, hours(2)}, never)
                  .front(),
              2.0);
    EXPECT_EQ(cache.startIntegrals({hours(2), 3, hours(2)}, never)
                  .front(),
              5.0);
    EXPECT_EQ(cache.hits(), 2u);

    // One slot past the table's end is a miss again.
    EXPECT_EQ(
        cache.startIntegrals({hours(2), 4, hours(2)}, slot_value)
            .back(),
        4.0);
    EXPECT_EQ(cache.misses(), 2u);
    EXPECT_EQ(cache.hits(), 2u);
}

TEST(PlanCache, MoveTakesTheTablesAndCounters)
{
    PlanCache source;
    const auto slot_value = [](Seconds b) {
        return static_cast<double>(b);
    };
    source.startIntegrals({hours(1), 3, hours(2)}, slot_value);
    source.startIntegrals({hours(1), 3, hours(2)}, slot_value);

    PlanCache moved(std::move(source));
    EXPECT_EQ(moved.misses(), 1u);
    EXPECT_EQ(moved.hits(), 1u);
    // The source is left empty, so only `moved` flushes the totals.
    EXPECT_EQ(source.misses(), 0u);
    EXPECT_EQ(source.hits(), 0u);

    const std::span<const double> again = moved.startIntegrals(
        {hours(1), 3, hours(2)},
        [](Seconds) -> double { ADD_FAILURE(); return 0.0; });
    EXPECT_EQ(again[2], static_cast<double>(hours(3)));
    EXPECT_EQ(moved.hits(), 2u);
}

TEST(PlanCache, SlotTableComputesEachSlotOnce)
{
    PlanCache cache;
    int computes = 0;
    const auto slot_value = [&](Seconds b) {
        ++computes;
        return static_cast<double>(b);
    };

    // First key covers slots [1, 4); filling also covers the gap
    // from slot 0, so 4 computations.
    cache.startIntegrals({hours(1), 3, hours(2)}, slot_value);
    EXPECT_EQ(computes, 4);

    // An overlapping key of the same length extends by one slot.
    const std::span<const double> integrals = cache.startIntegrals(
        {hours(2), 3, hours(2)}, slot_value);
    EXPECT_EQ(computes, 5);
    ASSERT_EQ(integrals.size(), 3u);
    EXPECT_EQ(integrals[0], static_cast<double>(hours(2)));
    EXPECT_EQ(integrals[2], static_cast<double>(hours(4)));

    // A different window length gets its own table.
    cache.startIntegrals({hours(1), 2, hours(5)}, slot_value);
    EXPECT_EQ(computes, 8);
}

/** Jobs planned with and without the cache must match segment for
 *  segment (the invariant the golden CSV tests pin end to end), with
 *  perfect and noisy forecasts. As in a simulation, one cache serves a run
 *  whose arrivals walk forward through the slots. */
TEST(PlanCacheEquivalence, MemoizedPlansMatchDirect)
{
    // The second trace's flat runs tie window integrals, so the
    // memoized scan must keep the first minimum as the direct one
    // does.
    const std::vector<std::vector<double>> traces = {
        {400, 120, 330, 50, 210, 600, 90, 480, 70, 310, 150, 260, 30,
         520, 440, 80, 360, 200},
        {300, 300, 100, 100, 100, 100, 100, 250, 250, 250, 250, 50,
         50, 50, 50, 50, 600, 600}};
    const QueueSpec queue{"q", 3 * kSecondsPerDay, hours(6),
                          hours(2)};

    const LowestSlotPolicy lowest_slot;
    const LowestWindowPolicy lowest_window;
    const CarbonTimePolicy carbon_time;
    const WaitAwhilePolicy wait_awhile;
    const EcovisorPolicy ecovisor;
    const AdaptiveSRPolicy adaptive_sr;
    const std::vector<const SchedulingPolicy *> policies = {
        &lowest_slot, &lowest_window, &carbon_time,
        &wait_awhile, &ecovisor,      &adaptive_sr};

    // In time order: slot starts, mid-slot, just before slot ends,
    // and a jump over several slots.
    const std::vector<Seconds> arrivals = {
        0,     1,     599,   1800,  3599,  3600,  5000,
        7205,  10799, 14400, 14401, 21600, 25199, 36000};

    for (const std::vector<double> &hourly : traces) {
        const CarbonTrace trace("test", hourly);
        for (const double noise : {0.0, 0.3}) {
            const CarbonInfoService cis(trace, noise, 11);
            ASSERT_TRUE(cis.slotInvariantForecasts());
            for (const SchedulingPolicy *policy : policies) {
                PlanCache cache;
                for (const Seconds now : arrivals) {
                    const Job job{1, now, hours(1), 1};
                    PlanContext direct{now, &cis, &queue};
                    PlanContext memo{now, &cis, &queue};
                    memo.cache = &cache;
                    const SchedulePlan a = policy->plan(job, direct);
                    const SchedulePlan b = policy->plan(job, memo);
                    ASSERT_EQ(a.segmentCount(), b.segmentCount())
                        << policy->name() << " at now=" << now
                        << " noise " << noise;
                    for (std::size_t i = 0; i < a.segmentCount();
                         ++i) {
                        const RunSegment &x = a.segment(i);
                        const RunSegment &y = b.segment(i);
                        EXPECT_TRUE(x.start == y.start &&
                                    x.end == y.end &&
                                    x.width == y.width)
                            << policy->name() << " at now=" << now
                            << " noise " << noise << ": "
                            << a.toString() << " vs "
                            << b.toString();
                    }
                }
                // Lowest-Slot asks the source directly; every other
                // policy replays a table for repeat arrivals in a
                // slot: the start-time policies their integrals,
                // the suspend-resume ones the one-slot table.
                if (policy != &lowest_slot) {
                    EXPECT_GT(cache.hits(), 0u) << policy->name();
                }
            }
        }
    }
}

/** Memoized per-boundary integrals must be bitwise the reference
 *  loop's values — first on the miss that fills the table, then on
 *  every replayed hit. */
TEST(PlanCacheEquivalence, StartIntegralsMatchReferenceBitwise)
{
    Rng rng(314);
    for (int t = 0; t < 10; ++t) {
        const CarbonTrace trace = randomTrace(rng, 72);
        PlanCache cache;
        const Seconds window = hours(rng.uniformInt(1, 6));
        const Seconds first =
            hours(rng.uniformInt(0, 24));
        const std::int64_t count = rng.uniformInt(1, 12);
        const PlanCache::BoundaryKey key{first, count, window};
        const auto slot_value = [&](Seconds b) {
            return trace.integrate(b, b + window);
        };
        for (int pass = 0; pass < 2; ++pass) {
            const std::span<const double> integrals =
                cache.startIntegrals(key, slot_value);
            ASSERT_EQ(integrals.size(),
                      static_cast<std::size_t>(count));
            for (std::int64_t i = 0; i < count; ++i) {
                const Seconds b = first + i * kSecondsPerHour;
                ASSERT_EQ(integrals[static_cast<std::size_t>(i)],
                          refIntegrate(trace, b, b + window))
                    << "trace " << t << " boundary " << b
                    << " pass " << pass;
            }
        }
        EXPECT_GT(cache.hits(), 0u);
    }
}

} // namespace
} // namespace gaia
