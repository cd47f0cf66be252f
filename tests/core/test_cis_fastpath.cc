/**
 * @file
 * Property tests pinning the O(1) carbon-accounting fast path to a
 * naive reference loop.
 *
 * CarbonTrace::integrate() and minSlotIn() answer window queries
 * from precomputed tables (compensated prefix sums and a sparse
 * RMQ). These tests re-derive every answer with the per-hour loop
 * the tables replaced — the reference accumulates with the same
 * CompensatedSum discipline, i.e. the same rounding — and require
 * exact agreement across randomized traces and windows, including
 * the clamp regions before t=0 and past the end of the trace. The
 * CisFastPath tests then pin every carbon source's window queries:
 * the oracle service to the trace, every other source to a walk
 * over its own per-slot forecasts.
 */

#include "core/cis.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/rng.h"
#include "common/stats.h"
#include "fault/faulty_source.h"
#include "tests/common/reference_oracles.h"
#include "trace/carbon_trace.h"
#include "trace/forecast.h"

namespace gaia {
namespace {
// refIntegrate / naiveIntegrate / refMinSlot, refWindowAnswers and
// the randomized trace/window generators live in
// tests/common/reference_oracles.h, shared with the plan-cache and
// elastic oracle suites.

TEST(CarbonTraceFastPath, IntegrateMatchesReferenceBitwise)
{
    Rng rng(2024);
    for (int t = 0; t < 20; ++t) {
        const CarbonTrace trace = randomTrace(
            rng, static_cast<std::size_t>(rng.uniformInt(1, 500)));
        for (int q = 0; q < 400; ++q) {
            const auto [from, to] = randomWindow(rng, trace);
            const double fast = trace.integrate(from, to);
            const double ref = refIntegrate(trace, from, to);
            ASSERT_EQ(fast, ref)
                << "trace " << t << " window [" << from << ", "
                << to << ")";
        }
    }
}

TEST(CarbonTraceFastPath, IntegrateTracksThePlainDoubleLoop)
{
    // The compensated sum is a strict accuracy upgrade over the old
    // plain accumulation; the two stay within a few ulps.
    Rng rng(7);
    for (int t = 0; t < 5; ++t) {
        const CarbonTrace trace = randomTrace(rng, 24 * 60);
        for (int q = 0; q < 200; ++q) {
            const auto [from, to] = randomWindow(rng, trace);
            const double fast = trace.integrate(from, to);
            const double naive = naiveIntegrate(trace, from, to);
            const double scale = std::max(1.0, std::abs(naive));
            EXPECT_NEAR(fast, naive, 1e-9 * scale)
                << "window [" << from << ", " << to << ")";
        }
    }
}

TEST(CarbonTraceFastPath, MinSlotMatchesFirstWinScanExactly)
{
    Rng rng(4242);
    for (int t = 0; t < 20; ++t) {
        const CarbonTrace trace = randomTrace(
            rng, static_cast<std::size_t>(rng.uniformInt(1, 500)));
        for (int q = 0; q < 400; ++q) {
            auto [from, to] = randomWindow(rng, trace);
            if (from == to)
                to = from + 1; // minSlotIn needs a non-empty window
            ASSERT_EQ(trace.minSlotIn(from, to),
                      refMinSlot(trace, from, to))
                << "trace " << t << " window [" << from << ", "
                << to << ")";
        }
    }
}

TEST(CarbonTraceFastPath, TraceBoundaryEdgeCases)
{
    const CarbonTrace trace(
        "edge", {300.0, 100.0, 100.0, 400.0, 50.0, 50.0});
    const Seconds end = trace.duration();

    // Empty and sub-slot windows.
    EXPECT_EQ(trace.integrate(1000, 1000), 0.0);
    EXPECT_EQ(trace.integrate(100, 101), 300.0);
    EXPECT_EQ(trace.integrate(hours(1), hours(2)), 100.0 * 3600.0);

    // Exact slot boundaries vs. straddling windows.
    EXPECT_EQ(trace.integrate(0, end),
              refIntegrate(trace, 0, end));
    EXPECT_EQ(trace.integrate(1800, hours(1) + 1800),
              refIntegrate(trace, 1800, hours(1) + 1800));

    // Clamp region before t=0: charged at the first slot's value.
    EXPECT_EQ(trace.integrate(-5000, 0),
              refIntegrate(trace, -5000, 0));
    EXPECT_EQ(trace.integrate(-5000, 1800),
              refIntegrate(trace, -5000, 1800));

    // Clamp region past the end: final hour's value repeats.
    EXPECT_EQ(trace.integrate(end - 1800, end + hours(3)),
              refIntegrate(trace, end - 1800, end + hours(3)));
    EXPECT_EQ(trace.integrate(end + hours(1), end + hours(2)),
              50.0 * 3600.0);

    // First-win ties across flat runs, and clamped windows.
    EXPECT_EQ(trace.minSlotIn(hours(1), hours(3)), 1);
    EXPECT_EQ(trace.minSlotIn(0, end), 4);
    EXPECT_EQ(trace.minSlotIn(hours(4), end + hours(5)), 4);
    EXPECT_EQ(trace.minSlotIn(-hours(2), hours(1)), 0);
    EXPECT_EQ(trace.minSlotIn(end + hours(1), end + hours(2)),
              refMinSlot(trace, end + hours(1), end + hours(2)));

    // Single-slot trace: every query lands on slot 0.
    const CarbonTrace one("one", {123.0});
    EXPECT_EQ(one.minSlotIn(-100, hours(9)), 0);
    EXPECT_EQ(one.integrate(0, hours(4)),
              refIntegrate(one, 0, hours(4)));
}

TEST(CarbonTraceFastPath, MeanOverIsIntegrateOverLength)
{
    Rng rng(99);
    const CarbonTrace trace = randomTrace(rng, 300);
    for (int q = 0; q < 200; ++q) {
        auto [from, to] = randomWindow(rng, trace);
        if (from == to)
            to = from + 1;
        EXPECT_EQ(trace.meanOver(from, to),
                  trace.integrate(from, to) /
                      static_cast<double>(to - from));
    }
}

TEST(CisFastPath, OracleDelegatesToTraceExactly)
{
    // With zero noise and no forecast model the CIS is an oracle:
    // its answers must be the trace's, slot for slot and bit for
    // bit, regardless of the observation time.
    Rng rng(1234);
    const CarbonTrace trace = randomTrace(rng, 24 * 14);
    const CarbonInfoService cis(trace);
    for (int q = 0; q < 500; ++q) {
        auto [from, to] = randomWindow(rng, trace);
        if (from == to)
            to = from + 1;
        const Seconds now =
            rng.uniformInt(0, trace.duration() - 1);
        const double p = rng.uniform(0.0, 100.0);
        EXPECT_EQ(cis.forecastIntegrate(now, from, to),
                  trace.integrate(from, to));
        EXPECT_EQ(cis.forecastMinSlot(now, from, to),
                  trace.minSlotIn(from, to));
        EXPECT_EQ(cis.forecastPercentile(now, from, to, p),
                  trace.percentileOver(from, to, p));
    }
}

TEST(CisFastPath, OtherSourcesWalkTheirSlotsExactly)
{
    // Every source without perfect forecasts answers the window
    // queries by walking its own per-slot forecasts: hashed noise, a
    // forecast model, and a fault decorator whose stale, spike and
    // gap clauses distort what each slot reads.
    Rng rng(5);
    const CarbonTrace trace = randomTrace(rng, 24 * 14);
    const CarbonInfoService noisy(trace, 0.2, 17);
    const PersistenceForecaster persistence;
    const CarbonInfoService modelled(trace, persistence);
    const CarbonInfoService oracle(trace);
    FaultSpec spec;
    spec.stale_rate = 0.1;
    spec.spike_rate = 0.1;
    spec.gap_rate = 0.2;
    const FaultInjector injector(spec);
    const FaultyCarbonSource faulty(oracle, injector);

    const CarbonInfoSource *const sources[] = {&noisy, &modelled,
                                               &faulty};
    for (const CarbonInfoSource *source : sources) {
        int distorted = 0;
        for (int q = 0; q < 500; ++q) {
            auto [from, to] = randomWindow(rng, trace);
            if (from == to)
                to = from + 1;
            const Seconds now =
                rng.uniformInt(0, trace.duration() - 1);
            const double p = rng.uniform(0.0, 100.0);
            const WindowAnswers ref =
                refWindowAnswers(*source, now, from, to, p);
            ASSERT_EQ(source->forecastIntegrate(now, from, to),
                      ref.integral)
                << "query " << q << " window [" << from << ", " << to
                << ") at " << now;
            ASSERT_EQ(source->forecastMinSlot(now, from, to),
                      ref.min_slot)
                << "query " << q;
            ASSERT_EQ(source->forecastPercentile(now, from, to, p),
                      ref.percentile)
                << "query " << q;
            // The same walk over trace truth, same rounding.
            if (ref.integral != naiveIntegrate(trace, from, to))
                ++distorted;
        }
        // The walk must have seen forecasts that are not the truth.
        EXPECT_GT(distorted, 100);
    }
}

} // namespace
} // namespace gaia
