/** @file Tests for the reserved-core pool allocator. */

#include "cloud/reserved_pool.h"

#include <gtest/gtest.h>

namespace gaia {
namespace {

TEST(ReservedPool, AcquireReleaseCounting)
{
    ReservedPool pool(10);
    EXPECT_EQ(pool.capacity(), 10);
    EXPECT_EQ(pool.freeCores(), 10);
    EXPECT_TRUE(pool.canFit(10));
    EXPECT_FALSE(pool.canFit(11));

    pool.acquire(4);
    EXPECT_EQ(pool.inUse(), 4);
    EXPECT_EQ(pool.freeCores(), 6);
    pool.acquire(6);
    EXPECT_FALSE(pool.canFit(1));
    pool.release(4);
    EXPECT_EQ(pool.freeCores(), 4);
    pool.release(6);
    EXPECT_EQ(pool.inUse(), 0);
}

TEST(ReservedPool, ZeroCapacityPool)
{
    ReservedPool pool(0);
    EXPECT_FALSE(pool.canFit(1));
    EXPECT_EQ(pool.freeCores(), 0);
}

TEST(ReservedPoolDeath, MisuseIsFatal)
{
    EXPECT_DEATH(ReservedPool(-1), "negative reserved capacity");

    ReservedPool pool(4);
    EXPECT_DEATH(pool.acquire(5), "acquire");
    EXPECT_DEATH(pool.release(1), "release");
    pool.acquire(2);
    EXPECT_DEATH(pool.release(3), "release");
    EXPECT_DEATH(pool.canFit(0), "non-positive core request");
}

} // namespace
} // namespace gaia
