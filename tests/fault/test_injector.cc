/** @file Tests for the deterministic fault injector. */

#include "fault/injector.h"

#include <gtest/gtest.h>

namespace gaia {
namespace {

TEST(Injector, RateEndpointsAreCertain)
{
    FaultSpec on;
    on.outage_rate = 1.0;
    on.gap_rate = 1.0;
    on.straggler_rate = 1.0;
    on.delay_rate = 1.0;
    const FaultInjector always(on);
    const FaultInjector never{FaultSpec{}};
    for (Seconds t : {Seconds(0), Seconds(1), Seconds(3599),
                      Seconds(3600), hours(50)}) {
        EXPECT_TRUE(always.outageAt(t)) << t;
        EXPECT_FALSE(never.outageAt(t)) << t;
    }
    for (SlotIndex s = 0; s < 48; ++s) {
        EXPECT_TRUE(always.gapSlot(s));
        EXPECT_FALSE(never.gapSlot(s));
    }
    for (std::uint64_t id = 1; id < 50; ++id) {
        EXPECT_TRUE(always.straggler(id));
        EXPECT_TRUE(always.delayedStart(id));
        EXPECT_FALSE(never.straggler(id));
        EXPECT_FALSE(never.delayedStart(id));
    }
}

TEST(Injector, LongerWindowsCoverSupersets)
{
    // Same seed and rate: a window twice as long can only add
    // coverage, never remove it (starts are identical, coverage
    // extends).
    FaultSpec narrow;
    narrow.outage_rate = 0.3;
    narrow.outage_duration = hours(1);
    FaultSpec wide = narrow;
    wide.outage_duration = hours(2);
    const FaultInjector short_windows(narrow);
    const FaultInjector long_windows(wide);
    bool saw_covered = false, saw_clear = false;
    for (Seconds t = 0; t < hours(300); t += 1800) {
        if (short_windows.outageAt(t)) {
            EXPECT_TRUE(long_windows.outageAt(t)) << t;
            saw_covered = true;
        }
        if (!long_windows.outageAt(t))
            saw_clear = true;
    }
    // The rate actually produced both covered and clear instants —
    // otherwise the superset check above is vacuous.
    EXPECT_TRUE(saw_covered);
    EXPECT_TRUE(saw_clear);
}

TEST(Injector, DecisionsAreDeterministicPerSeed)
{
    FaultSpec spec;
    spec.outage_rate = 0.5;
    spec.gap_rate = 0.5;
    spec.storm_rate = 0.5;
    spec.straggler_rate = 0.5;
    const FaultInjector a(spec);
    const FaultInjector b(spec);
    FaultSpec reseeded = spec;
    reseeded.seed = 2;
    const FaultInjector other(reseeded);
    int diverged = 0;
    for (SlotIndex s = 0; s < 500; ++s) {
        const Seconds t = slotStart(s) + 17;
        EXPECT_EQ(a.outageAt(t), b.outageAt(t));
        EXPECT_EQ(a.gapSlot(s), b.gapSlot(s));
        EXPECT_EQ(a.straggler(static_cast<std::uint64_t>(s)),
                  b.straggler(static_cast<std::uint64_t>(s)));
        EXPECT_EQ(a.firstStormIn(slotStart(s), slotStart(s + 1)),
                  b.firstStormIn(slotStart(s), slotStart(s + 1)));
        diverged += a.outageAt(t) != other.outageAt(t);
        diverged += a.gapSlot(s) != other.gapSlot(s);
    }
    // A different seed is a different fault universe.
    EXPECT_GT(diverged, 0);
}

TEST(Injector, StormInstantsLieInsideTheirHour)
{
    FaultSpec spec;
    spec.storm_rate = 1.0;
    const FaultInjector injector(spec);
    for (SlotIndex h = 0; h < 48; ++h) {
        const Seconds s =
            injector.firstStormIn(slotStart(h), slotStart(h + 1));
        ASSERT_GE(s, slotStart(h));
        ASSERT_LT(s, slotStart(h + 1));
    }
    // The earliest instant over a long range is hour 0's instant.
    EXPECT_EQ(injector.firstStormIn(0, hours(48)),
              injector.firstStormIn(0, hours(1)));
}

TEST(Injector, StormIntervalsAreHalfOpen)
{
    FaultSpec spec;
    spec.storm_rate = 1.0;
    const FaultInjector injector(spec);
    const Seconds s = injector.firstStormIn(0, hours(1));
    ASSERT_GE(s, 0);
    // A slice ending exactly at the strike instant is untouched:
    // the storm revokes [s, ...), not (..., s].
    EXPECT_EQ(injector.firstStormIn(0, s), -1);
    // A slice *starting* exactly at the strike instant is revoked
    // at its first second — revocation on the slot boundary.
    EXPECT_EQ(injector.firstStormIn(s, s + 1), s);
    // Empty intervals never storm.
    EXPECT_EQ(injector.firstStormIn(s, s), -1);
    EXPECT_EQ(injector.firstStormIn(hours(5), hours(5)), -1);
}

TEST(Injector, StragglerStretchRoundsUpAndNeverShrinks)
{
    FaultSpec spec;
    spec.straggler_rate = 1.0;
    spec.straggler_factor = 1.5;
    const FaultInjector injector(spec);
    EXPECT_EQ(injector.stretched(100), 150);
    EXPECT_EQ(injector.stretched(101), 152); // ceil(151.5)
    FaultSpec unit = spec;
    unit.straggler_factor = 1.0;
    EXPECT_EQ(FaultInjector(unit).stretched(3600), 3600);
    // Huge factors saturate at the century an input job may last,
    // with no float-to-int overflow on the way.
    for (const double factor : {1e7, 1e300}) {
        FaultSpec huge = spec;
        huge.straggler_factor = factor;
        EXPECT_EQ(FaultInjector(huge).stretched(3600), kMaxInputDuration)
            << factor;
    }
}

TEST(Injector, DelayUsesTheConfiguredDuration)
{
    FaultSpec spec;
    spec.delay_rate = 1.0;
    spec.delay_duration = minutes(45);
    const FaultInjector injector(spec);
    EXPECT_TRUE(injector.delayedStart(7));
    EXPECT_EQ(injector.startDelay(), minutes(45));
}

} // namespace
} // namespace gaia
