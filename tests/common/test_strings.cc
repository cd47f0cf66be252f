/** @file Tests for string utilities. */

#include "common/strings.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <string>

namespace gaia {
namespace {

TEST(Strings, SplitKeepsEmptyFields)
{
    const auto fields = split("a,b,,c", ',');
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[2], "");
    EXPECT_EQ(fields[3], "c");
}

TEST(Strings, SplitSingleField)
{
    const auto fields = split("alone", ',');
    ASSERT_EQ(fields.size(), 1u);
    EXPECT_EQ(fields[0], "alone");
    EXPECT_EQ(split("", ',').size(), 1u);
}

TEST(Strings, TrimWhitespace)
{
    EXPECT_EQ(trim("  x y\t"), "x y");
    EXPECT_EQ(trim("\n\n"), "");
    EXPECT_EQ(trim("z"), "z");
}

TEST(Strings, ParseDouble)
{
    EXPECT_DOUBLE_EQ(tryParseDouble("3.25", "test").value(), 3.25);
    EXPECT_DOUBLE_EQ(tryParseDouble(" -1e3 ", "test").value(), -1000.0);
}

TEST(Strings, ParseInt)
{
    EXPECT_EQ(tryParseInt("42", "test").value(), 42);
    EXPECT_EQ(tryParseInt("  -7 ", "test").value(), -7);
}

TEST(Strings, ParseErrorsAreStatuses)
{
    const Status statuses[] = {tryParseDouble("abc", "ctx").status(),
                               tryParseInt("1.5", "ctx").status(),
                               tryParseInt("", "ctx").status()};
    const char *messages[] = {"cannot parse 'abc'", "cannot parse '1.5'",
                              "cannot parse ''"};
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_EQ(statuses[i].code(), ErrorCode::ParseError);
        EXPECT_NE(statuses[i].message().find(messages[i]),
                  std::string::npos)
            << statuses[i].message();
    }
}

TEST(Strings, FixedFormatting)
{
    EXPECT_EQ(fmt(3.14159, 2), "3.14");
    EXPECT_EQ(fmt(2.0, 0), "2");
    EXPECT_EQ(fmt(-0.5, 1), "-0.5");
}

TEST(Strings, PercentFormatting)
{
    EXPECT_EQ(fmtPercent(0.123), "+12.3%");
    EXPECT_EQ(fmtPercent(-0.04, 1), "-4.0%");
    EXPECT_EQ(fmtPercent(0.0), "+0.0%");
}

TEST(Strings, StartsWithAndToLower)
{
    EXPECT_TRUE(startsWith("Carbon-Time", "Carbon"));
    EXPECT_FALSE(startsWith("abc", "abcd"));
    EXPECT_EQ(toLower("Wait-AWHILE"), "wait-awhile");
}

} // namespace
} // namespace gaia
