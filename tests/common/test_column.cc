/** @file Tests for Column, the vector of a run-sized column. */

#include "common/column.h"

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdint>
#include <new>
#include <utility>

namespace gaia {
namespace {

/** Entries of a 4-byte column whose block is mapped (outside ASan). */
constexpr std::size_t kMappedEntries = 100000;
static_assert(kMappedEntries * sizeof(std::uint32_t) >= kPageBlockBytes);

TEST(Column, KeepsEveryValuePastAMillionEntries)
{
    // Growth by doubling moves the entries through every block size,
    // from ::operator new to mapped pages.
    constexpr std::uint32_t kEntries = (1u << 20) + 12345;
    Column<std::uint32_t> column;
    for (std::uint32_t i = 0; i < kEntries; ++i)
        column.push_back(i * 7u);
    ASSERT_EQ(column.size(), kEntries);
    for (std::uint32_t i = 0; i < kEntries; ++i)
        ASSERT_EQ(column[i], i * 7u) << i;
}

TEST(Column, CopyKeepsTheContents)
{
    for (std::size_t entries : {std::size_t{10}, kMappedEntries}) {
        Column<std::uint32_t> column(entries);
        for (std::size_t i = 0; i < entries; ++i)
            column[i] = static_cast<std::uint32_t>(i ^ 0x5a5au);
        const Column<std::uint32_t> copy = column;
        EXPECT_NE(copy.data(), column.data()) << entries;
        EXPECT_EQ(copy, column) << entries;
    }
}

TEST(Column, MoveKeepsTheDataPointer)
{
    Column<std::uint32_t> column(kMappedEntries, 3);
    const std::uint32_t *data = column.data();
    Column<std::uint32_t> moved = std::move(column);
    EXPECT_EQ(moved.data(), data);
    Column<std::uint32_t> assigned(10, 1);
    assigned = std::move(moved);
    EXPECT_EQ(assigned.data(), data);
    ASSERT_EQ(assigned.size(), kMappedEntries);
    EXPECT_EQ(assigned.back(), 3u);
}

TEST(Column, ClearingAndRefillingReusesTheBlock)
{
    Column<std::uint32_t> column;
    column.reserve(kMappedEntries);
    const std::uint32_t *data = column.data();
    for (std::uint32_t pass = 0; pass < 3; ++pass) {
        column.clear();
        for (std::uint32_t i = 0; i < kMappedEntries; ++i)
            column.push_back(i + pass);
        EXPECT_EQ(column.data(), data) << pass;
        EXPECT_EQ(column.front(), pass);
        EXPECT_EQ(column.back(), kMappedEntries - 1 + pass);
    }
}

TEST(Column, LargeBlocksArePageAligned)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "an ASan build takes every block from operator new";
#else
    // malloc puts its chunk header in front of a block it maps, so
    // only a block mapped for the column alone starts on a page.
    const auto page = static_cast<std::uintptr_t>(sysconf(_SC_PAGESIZE));
    for (std::size_t bytes : {kPageBlockBytes, 3 * kPageBlockBytes + 5}) {
        const Column<std::uint8_t> column(bytes);
        EXPECT_EQ(reinterpret_cast<std::uintptr_t>(column.data()) % page,
                  0u)
            << bytes;
    }
#endif
}

TEST(Column, AFailedMapThrowsBadAlloc)
{
#if defined(__SANITIZE_ADDRESS__)
    GTEST_SKIP() << "ASan reports an oversized operator new instead";
#else
    // Larger than any address space, so the kernel refuses it
    // without reserving anything.
    PageAllocator<std::uint8_t> allocator;
    EXPECT_THROW(allocator.allocate(std::size_t{1} << 62), std::bad_alloc);
#endif
}

} // namespace
} // namespace gaia
