/** @file Tests for the FaultSpec grammar and validation. */

#include "fault/fault_spec.h"

#include <gtest/gtest.h>

namespace gaia {
namespace {

TEST(FaultSpec, DefaultsAreDisabledAndValid)
{
    const FaultSpec spec;
    EXPECT_FALSE(spec.enabled());
    EXPECT_FALSE(spec.anyCisFault());
    EXPECT_FALSE(spec.anyClusterFault());
    EXPECT_TRUE(spec.validate().isOk());
    EXPECT_EQ(spec.key(), "off");
}

TEST(FaultSpec, ParseSetsEveryAddressedField)
{
    const Result<FaultSpec> parsed = FaultSpec::parse(
        "outage:rate=0.2,hours=3; straggler:rate=0.1,factor=2.5");
    ASSERT_TRUE(parsed.isOk());
    const FaultSpec &spec = parsed.value();
    EXPECT_DOUBLE_EQ(spec.outage_rate, 0.2);
    EXPECT_EQ(spec.outage_duration, hours(3));
    EXPECT_DOUBLE_EQ(spec.straggler_rate, 0.1);
    EXPECT_DOUBLE_EQ(spec.straggler_factor, 2.5);
    EXPECT_TRUE(spec.anyCisFault());
    EXPECT_TRUE(spec.anyClusterFault());
    EXPECT_TRUE(spec.enabled());
}

TEST(FaultSpec, ParseCoversEveryKind)
{
    const Result<FaultSpec> parsed = FaultSpec::parse(
        "outage:rate=0.1; stale:rate=0.1,hours=6; "
        "spike:rate=0.1,hours=2,factor=5; gap:rate=0.1; "
        "storm:rate=0.1; straggler:rate=0.1; "
        "delay:rate=0.1,minutes=45");
    ASSERT_TRUE(parsed.isOk());
    const FaultSpec &spec = parsed.value();
    EXPECT_DOUBLE_EQ(spec.stale_rate, 0.1);
    EXPECT_EQ(spec.stale_duration, hours(6));
    EXPECT_DOUBLE_EQ(spec.spike_factor, 5.0);
    EXPECT_EQ(spec.spike_duration, hours(2));
    EXPECT_DOUBLE_EQ(spec.gap_rate, 0.1);
    EXPECT_DOUBLE_EQ(spec.storm_rate, 0.1);
    EXPECT_EQ(spec.delay_duration, minutes(45));
}

TEST(FaultSpec, MergeAccumulatesAcrossCalls)
{
    FaultSpec spec;
    ASSERT_TRUE(spec.merge("gap:rate=0.5").isOk());
    ASSERT_TRUE(spec.merge("storm:rate=0.25").isOk());
    EXPECT_DOUBLE_EQ(spec.gap_rate, 0.5);
    EXPECT_DOUBLE_EQ(spec.storm_rate, 0.25);
    // Empty text (the CLI default) is a no-op, not an error.
    ASSERT_TRUE(spec.merge("").isOk());
}

TEST(FaultSpec, GrammarErrorsAreStatuses)
{
    EXPECT_FALSE(FaultSpec::parse("bogus:rate=1").isOk());
    EXPECT_FALSE(FaultSpec::parse("outage:frequency=1").isOk());
    EXPECT_FALSE(FaultSpec::parse("outage:rate").isOk());
    EXPECT_FALSE(FaultSpec::parse("outage").isOk());
    EXPECT_FALSE(FaultSpec::parse("outage:rate=abc").isOk());
    EXPECT_FALSE(FaultSpec::parse("outage:").isOk());
    // Kinds reject keys they do not accept.
    EXPECT_FALSE(FaultSpec::parse("gap:hours=2").isOk());
    EXPECT_FALSE(FaultSpec::parse("outage:factor=2").isOk());
}

TEST(FaultSpec, ValidationErrorsAreStatuses)
{
    EXPECT_FALSE(FaultSpec::parse("outage:rate=2").isOk());
    EXPECT_FALSE(FaultSpec::parse("outage:rate=-0.1").isOk());
    EXPECT_FALSE(
        FaultSpec::parse("straggler:rate=0.5,factor=0.5").isOk());
    EXPECT_FALSE(
        FaultSpec::parse("straggler:rate=0.5,factor=inf").isOk());
    EXPECT_FALSE(
        FaultSpec::parse("delay:rate=0.1,minutes=0").isOk());
    EXPECT_FALSE(
        FaultSpec::parse("spike:rate=0.1,factor=-1").isOk());
    // A spike past 1000x, finite or not, could overflow a forecast.
    for (const char *text :
         {"spike:rate=0.1,factor=inf", "spike:rate=0.1,factor=1e308"}) {
        const Result<FaultSpec> spike = FaultSpec::parse(text);
        ASSERT_FALSE(spike.isOk()) << text;
        EXPECT_NE(spike.status().message().find(
                      "spike factor must be in (0, 1000]"),
                  std::string::npos)
            << spike.status().message();
    }
    EXPECT_TRUE(FaultSpec::parse("spike:rate=0.1,factor=1000").isOk());
    // Durations beyond the 7-day scan bound are rejected; huge and
    // non-finite ones before they reach a double-to-int64 cast.
    for (const char *text :
         {"stale:rate=0.1,hours=200", "outage:rate=0.1,hours=1e300",
          "spike:rate=0.1,hours=-inf", "delay:rate=0.1,minutes=nan"})
        EXPECT_FALSE(FaultSpec::parse(text).isOk()) << text;
    EXPECT_NE(FaultSpec::parse("outage:rate=0.1,hours=inf")
                  .status()
                  .message()
                  .find("fault outage hours must be at most"),
              std::string::npos);

    FaultSpec retries;
    retries.cis_max_retries = 17;
    EXPECT_FALSE(retries.validate().isOk());
    FaultSpec backoff;
    backoff.cis_retry_backoff = 0;
    EXPECT_FALSE(backoff.validate().isOk());
    // The first backoff shares the 7-day bound of every other fault
    // duration, so the ladder's product cannot overflow Seconds.
    backoff.cis_retry_backoff = 7 * kSecondsPerDay + 1;
    const Status past = backoff.validate();
    ASSERT_FALSE(past.isOk());
    EXPECT_NE(past.message().find("cis retry backoff duration exceeds "
                                  "the 7-day bound"),
              std::string::npos)
        << past.message();
    backoff.cis_retry_backoff = 7 * kSecondsPerDay;
    EXPECT_TRUE(backoff.validate().isOk());
}

TEST(FaultSpec, RetryLadderEndsWithinACentury)
{
    // 16 probes wait backoff x (2^16 - 1) in all. A century is
    // 3,153,600,000 s, so 48,120 s (802 minutes) is the longest
    // first backoff that 16 retries allow; a week-long one would
    // plan jobs about 1,256 years after submit.
    FaultSpec spec;
    spec.cis_max_retries = 16;
    spec.cis_retry_backoff = 48120;
    EXPECT_TRUE(spec.validate().isOk());
    spec.cis_retry_backoff = 48121;
    const Status past = spec.validate();
    ASSERT_FALSE(past.isOk());
    EXPECT_NE(past.message().find("cis retry ladder of 16 retries"),
              std::string::npos)
        << past.message();
    // Fewer retries leave room for a longer backoff: a week-long one
    // allows 12.
    spec.cis_retry_backoff = 7 * kSecondsPerDay;
    spec.cis_max_retries = 12;
    EXPECT_TRUE(spec.validate().isOk());
    spec.cis_max_retries = 13;
    EXPECT_FALSE(spec.validate().isOk());
}

TEST(FaultSpec, KeyIdentifiesTheConfiguration)
{
    FaultSpec a;
    a.outage_rate = 0.2;
    FaultSpec b = a;
    b.seed = 99;
    FaultSpec c = a;
    c.outage_rate = 0.3;
    EXPECT_NE(a.key(), "off");
    EXPECT_NE(a.key(), b.key());
    EXPECT_NE(a.key(), c.key());
    EXPECT_EQ(a.key(), FaultSpec(a).key());
}

} // namespace
} // namespace gaia
