/** @file Tests for the hourly carbon-intensity series. */

#include "trace/carbon_trace.h"

#include <gtest/gtest.h>

#include <cstdio>

#include "common/time.h"

namespace gaia {
namespace {

CarbonTrace
makeTrace()
{
    // Four hours: 100, 200, 50, 400 g/kWh.
    return CarbonTrace("test", {100.0, 200.0, 50.0, 400.0});
}

TEST(CarbonTrace, BasicAccessors)
{
    const CarbonTrace t = makeTrace();
    EXPECT_EQ(t.region(), "test");
    EXPECT_EQ(t.slotCount(), 4u);
    EXPECT_EQ(t.duration(), 4 * kSecondsPerHour);
    EXPECT_DOUBLE_EQ(t.atSlot(0), 100.0);
    EXPECT_DOUBLE_EQ(t.atSlot(3), 400.0);
}

TEST(CarbonTrace, AtIsPiecewiseConstant)
{
    const CarbonTrace t = makeTrace();
    EXPECT_DOUBLE_EQ(t.at(0), 100.0);
    EXPECT_DOUBLE_EQ(t.at(3599), 100.0);
    EXPECT_DOUBLE_EQ(t.at(3600), 200.0);
    EXPECT_DOUBLE_EQ(t.at(2 * 3600 + 1800), 50.0);
}

TEST(CarbonTrace, QueriesClampBeyondEnds)
{
    const CarbonTrace t = makeTrace();
    EXPECT_DOUBLE_EQ(t.at(100 * kSecondsPerHour), 400.0);
    EXPECT_DOUBLE_EQ(t.atSlot(-3), 100.0);
}

TEST(CarbonTrace, IntegrateWholeSlots)
{
    const CarbonTrace t = makeTrace();
    EXPECT_DOUBLE_EQ(t.integrate(0, 3600), 100.0 * 3600);
    EXPECT_DOUBLE_EQ(t.integrate(0, 2 * 3600),
                     (100.0 + 200.0) * 3600);
}

TEST(CarbonTrace, IntegratePartialSlots)
{
    const CarbonTrace t = makeTrace();
    // Half of slot 0 plus a quarter of slot 1.
    EXPECT_DOUBLE_EQ(t.integrate(1800, 3600 + 900),
                     100.0 * 1800 + 200.0 * 900);
    EXPECT_DOUBLE_EQ(t.integrate(500, 500), 0.0);
}

TEST(CarbonTrace, IntegralIsAdditive)
{
    const CarbonTrace t = makeTrace();
    const double whole = t.integrate(100, 4 * 3600 - 10);
    const double split = t.integrate(100, 7000) +
                         t.integrate(7000, 4 * 3600 - 10);
    EXPECT_NEAR(whole, split, 1e-9);
}

TEST(CarbonTrace, GramsForConvertsUnits)
{
    const CarbonTrace t = makeTrace();
    // 1 kW for one hour at 100 g/kWh -> 100 g.
    EXPECT_DOUBLE_EQ(t.gramsFor(0, 3600, 1.0), 100.0);
    // 0.5 kW for 2 hours spanning 100 and 200 -> 150 g.
    EXPECT_DOUBLE_EQ(t.gramsFor(0, 2 * 3600, 0.5), 150.0);
    EXPECT_DOUBLE_EQ(t.gramsFor(0, 3600, 0.0), 0.0);
}

TEST(CarbonTrace, MinSlotFindsGlobalAndTies)
{
    const CarbonTrace t = makeTrace();
    EXPECT_EQ(t.minSlotIn(0, 4 * 3600), 2);
    EXPECT_EQ(t.minSlotIn(0, 2 * 3600), 0);
    // Tie: equal values resolve to the earliest slot.
    const CarbonTrace tie("tie", {5.0, 5.0, 5.0});
    EXPECT_EQ(tie.minSlotIn(0, 3 * 3600), 0);
}

TEST(CarbonTrace, MinSlotRespectsWindowStart)
{
    const CarbonTrace t = makeTrace();
    EXPECT_EQ(t.minSlotIn(3 * 3600, 4 * 3600), 3);
}

TEST(CarbonTrace, PercentileAndMeanOverWindow)
{
    const CarbonTrace t = makeTrace();
    EXPECT_DOUBLE_EQ(t.percentileOver(0, 4 * 3600, 0.0), 50.0);
    EXPECT_DOUBLE_EQ(t.percentileOver(0, 4 * 3600, 100.0), 400.0);
    EXPECT_DOUBLE_EQ(t.meanOver(0, 4 * 3600),
                     (100.0 + 200.0 + 50.0 + 400.0) / 4.0);
}

TEST(CarbonTrace, ResizedRepeatsValues)
{
    const CarbonTrace t = makeTrace();
    const CarbonTrace longer = t.resized(6);
    EXPECT_EQ(longer.slotCount(), 6u);
    EXPECT_DOUBLE_EQ(longer.atSlot(4), 100.0);
    EXPECT_DOUBLE_EQ(longer.atSlot(5), 200.0);
    const CarbonTrace shorter = t.resized(2);
    EXPECT_EQ(shorter.slotCount(), 2u);
}

TEST(CarbonTrace, CsvRoundTrip)
{
    const std::string path = ::testing::TempDir() + "carbon.csv";
    ASSERT_TRUE(makeTrace().toCsv(path).isOk());
    const Result<CarbonTrace> back =
        CarbonTrace::fromCsv(path, "test");
    ASSERT_TRUE(back.isOk()) << back.status().toString();
    ASSERT_EQ(back->slotCount(), 4u);
    EXPECT_DOUBLE_EQ(back->atSlot(3), 400.0);
    std::remove(path.c_str());
}

TEST(CarbonTrace, MakeRejectsInvalidValues)
{
    EXPECT_FALSE(CarbonTrace::make("x", {}).isOk());
    const Result<CarbonTrace> negative =
        CarbonTrace::make("x", {1.0, -2.0});
    ASSERT_FALSE(negative.isOk());
    EXPECT_EQ(negative.status().code(), ErrorCode::InvalidArgument);
    EXPECT_NE(negative.status().message().find("invalid intensity"),
              std::string::npos);
    EXPECT_TRUE(CarbonTrace::make("x", {1.0, 2.0}).isOk());
    // Finite but past the cap: integrals over it could overflow.
    const Result<CarbonTrace> huge =
        CarbonTrace::make("x", {1.0, 1e308});
    ASSERT_FALSE(huge.isOk());
    EXPECT_NE(huge.status().message().find("invalid intensity"),
              std::string::npos);
    EXPECT_TRUE(
        CarbonTrace::make("x", {1.0, kMaxCarbonIntensity}).isOk());
}

TEST(CarbonTrace, FromCsvReportsMalformedInput)
{
    EXPECT_FALSE(
        CarbonTrace::fromCsv("/nonexistent/carbon.csv", "x")
            .isOk());

    const std::string path =
        ::testing::TempDir() + "carbon_bad.csv";
    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("hour,carbon_intensity\n0,100\n1,banana\n", f);
        std::fclose(f);
    }
    const Result<CarbonTrace> bad =
        CarbonTrace::fromCsv(path, "x");
    ASSERT_FALSE(bad.isOk());
    EXPECT_NE(bad.status().message().find("cannot parse"),
              std::string::npos);

    {
        std::FILE *f = std::fopen(path.c_str(), "w");
        ASSERT_NE(f, nullptr);
        std::fputs("hour,watts\n0,100\n", f);
        std::fclose(f);
    }
    const Result<CarbonTrace> missing =
        CarbonTrace::fromCsv(path, "x");
    ASSERT_FALSE(missing.isOk());
    EXPECT_NE(missing.status().message().find("carbon_intensity"),
              std::string::npos);

    // A row's slot is its position, so the hours must read 0, 1, 2,
    // ...: each file below names the first row that breaks that.
    const struct
    {
        const char *rows;
        const char *named;
    } bad_hours[] = {
        {"5,100\n0,200\n3,50\n", "row 0 has hour '5', expected 0"},
        {"0,100\n1,200\n3,50\n", "row 2 has hour '3', expected 2"},
        {"1,100\n2,200\n3,50\n", "row 0 has hour '1', expected 0"},
        {"0.5,100\n1,200\n", "row 0 has hour '0.5', expected 0"},
    };
    for (const auto &c : bad_hours) {
        {
            std::FILE *f = std::fopen(path.c_str(), "w");
            ASSERT_NE(f, nullptr);
            std::fputs("hour,carbon_intensity\n", f);
            std::fputs(c.rows, f);
            std::fclose(f);
        }
        const Result<CarbonTrace> shuffled =
            CarbonTrace::fromCsv(path, "x");
        ASSERT_FALSE(shuffled.isOk()) << c.rows;
        EXPECT_EQ(shuffled.status().code(), ErrorCode::InvalidArgument);
        EXPECT_NE(shuffled.status().message().find(c.named),
                  std::string::npos)
            << shuffled.status().message();
        EXPECT_NE(shuffled.status().message().find(path),
                  std::string::npos)
            << shuffled.status().message();
    }
    std::remove(path.c_str());
}

TEST(CarbonTrace, CopiesShareTheTables)
{
    const CarbonTrace original = makeTrace();
    const CarbonTrace copy = original;
    EXPECT_EQ(copy.values().data(), original.values().data());
    EXPECT_EQ(copy.region(), "test");
    EXPECT_EQ(copy.integrate(0, 4 * kSecondsPerHour),
              original.integrate(0, 4 * kSecondsPerHour));

    // The tables outlive the trace that built them.
    CarbonTrace survivor;
    {
        const CarbonTrace scoped = makeTrace();
        survivor = scoped;
    }
    EXPECT_DOUBLE_EQ(survivor.atSlot(2), 50.0);
    EXPECT_EQ(survivor.minSlotIn(0, 4 * kSecondsPerHour), 2);
}

TEST(CarbonTraceDeath, InvalidQueries)
{
    const CarbonTrace t = makeTrace();
    EXPECT_DEATH(t.integrate(100, 50), "from");
    EXPECT_DEATH(t.minSlotIn(100, 100), "empty window");
    EXPECT_DEATH(t.gramsFor(0, 10, -1.0), "negative power");
}

TEST(CarbonTraceDeath, AnEmptyTraceAssertsOnEveryQuery)
{
    const CarbonTrace empty;
    EXPECT_DEATH(empty.integrate(0, 10), "empty CarbonTrace");
    EXPECT_DEATH(empty.atSlot(0), "empty CarbonTrace");
    EXPECT_DEATH(empty.minSlotIn(0, 10), "empty CarbonTrace");
    EXPECT_DEATH(empty.slotCount(), "empty CarbonTrace");
    EXPECT_DEATH(empty.region(), "empty CarbonTrace");
}

} // namespace
} // namespace gaia
