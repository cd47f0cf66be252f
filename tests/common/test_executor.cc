/** @file Tests for the worker-count resolution behind parallelFor. */

#include "common/executor.h"

#include <cstdlib>
#include <string>

#include <gtest/gtest.h>

#include "common/logging.h"

namespace gaia {
namespace {

/** Restores the thread override on scope exit. */
struct ThreadOverrideGuard
{
    ~ThreadOverrideGuard() { setParallelThreads(0); }
};

TEST(Threads, ExplicitOverrideWins)
{
    ThreadOverrideGuard guard;
    setParallelThreads(3);
    EXPECT_EQ(defaultParallelThreads(), 3u);
    setParallelThreads(0);
    EXPECT_GE(defaultParallelThreads(), 1u);
}

TEST(Threads, GarbageEnvValueWarnsOnceAndFallsBack)
{
    ThreadOverrideGuard guard;
    setParallelThreads(0);
    ASSERT_EQ(setenv("GAIA_THREADS", "abc", 1), 0);
    setQuiet(true);
    const std::size_t before = warningCount();
    const unsigned fallback = defaultParallelThreads();
    const std::size_t after_first = warningCount();
    const unsigned again = defaultParallelThreads();
    setQuiet(false);
    unsetenv("GAIA_THREADS");

    EXPECT_GE(fallback, 1u);
    EXPECT_EQ(again, fallback);
    // The warning fires once per process, not once per call.
    EXPECT_EQ(after_first, before + 1);
    EXPECT_EQ(warningCount(), after_first);
}

TEST(Threads, ValidEnvValueIsUsed)
{
    ThreadOverrideGuard guard;
    setParallelThreads(0);
    ASSERT_EQ(setenv("GAIA_THREADS", "5", 1), 0);
    EXPECT_EQ(defaultParallelThreads(), 5u);
    unsetenv("GAIA_THREADS");
}

TEST(Threads, EnvValuesThatWrapInUnsignedFallBack)
{
    // Unchecked, 2^32 would wrap to 0 workers and 2^32 + 1 to one;
    // both must fall back to the hardware default like any bad value.
    ThreadOverrideGuard guard;
    setParallelThreads(0);
    unsetenv("GAIA_THREADS");
    const unsigned fallback = defaultParallelThreads();
    setQuiet(true);
    for (const char *value : {"4294967296", "4294967297", "0", "-3"}) {
        ASSERT_EQ(setenv("GAIA_THREADS", value, 1), 0);
        EXPECT_EQ(defaultParallelThreads(), fallback) << value;
    }
    setQuiet(false);
    unsetenv("GAIA_THREADS");
}

TEST(Threads, ParseThreadCountAcceptsOnlyUnsignedPositives)
{
    EXPECT_EQ(parseThreadCount("1", "t").value(), 1u);
    EXPECT_EQ(parseThreadCount("4294967295", "t").value(),
              4294967295u);
    for (const char *bad : {"0", "-1", "4294967296", "4294967297",
                            "99999999999999999999", "4x", "", "abc"}) {
        const Result<unsigned> parsed = parseThreadCount(bad, "--t");
        ASSERT_FALSE(parsed.isOk()) << bad;
        EXPECT_NE(parsed.status().message().find("--t"),
                  std::string::npos)
            << parsed.status().message();
    }
}

} // namespace
} // namespace gaia
