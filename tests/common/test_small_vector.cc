/** @file Tests for the small-buffer vector. */

#include "common/small_vector.h"

#include <algorithm>
#include <cstdint>
#include <functional>
#include <type_traits>
#include <utility>

#include <gtest/gtest.h>

namespace gaia {
namespace {

struct Pair
{
    std::int64_t key = 0;
    int tag = 0;

    friend bool operator==(const Pair &a, const Pair &b)
    {
        return a.key == b.key && a.tag == b.tag;
    }
};

using Vec = SmallVector<Pair, 2>;

Vec
filled(int count)
{
    Vec v;
    for (int i = 0; i < count; ++i)
        v.push_back({i, 10 * i});
    return v;
}

bool
inlineStorage(const Vec &v)
{
    // The inline buffer sits inside the object itself.
    // std::less gives a total order even for unrelated pointers.
    const std::less<const void *> before;
    const void *p = v.data();
    return !before(p, &v) && before(p, &v + 1);
}

TEST(SmallVector, StartsEmptyWithInlineCapacity)
{
    const Vec v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.size(), 0u);
    EXPECT_EQ(v.capacity(), 2u);
    EXPECT_TRUE(inlineStorage(v));
}

TEST(SmallVector, SpillsFromInlineToHeap)
{
    Vec v = filled(2);
    EXPECT_TRUE(inlineStorage(v));
    EXPECT_EQ(v.capacity(), 2u);

    v.push_back({2, 20});
    EXPECT_FALSE(inlineStorage(v));
    EXPECT_EQ(v.size(), 3u);
    EXPECT_EQ(v.capacity(), 4u);
    for (int i = 0; i < 3; ++i)
        EXPECT_EQ(v[i], (Pair{i, 10 * i}));

    // Growth keeps doubling and preserves every element.
    for (int i = 3; i < 9; ++i)
        v.push_back({i, 10 * i});
    EXPECT_EQ(v.size(), 9u);
    EXPECT_EQ(v.capacity(), 16u);
    EXPECT_EQ(v.front(), (Pair{0, 0}));
    EXPECT_EQ(v.back(), (Pair{8, 80}));
}

TEST(SmallVector, EmplaceBackBuildsInPlaceAndReturnsTheElement)
{
    Vec v;
    Pair &p = v.emplace_back(7, 70);
    EXPECT_EQ(p, (Pair{7, 70}));
    EXPECT_EQ(&p, &v.back());
}

TEST(SmallVector, ReserveSpillsOnlyPastInlineCapacity)
{
    Vec v;
    v.reserve(2);
    EXPECT_TRUE(inlineStorage(v));
    v.reserve(5);
    EXPECT_FALSE(inlineStorage(v));
    EXPECT_EQ(v.capacity(), 5u);
    EXPECT_TRUE(v.empty());
}

TEST(SmallVector, CopyIsDeep)
{
    for (int count : {1, 5}) { // inline and spilled sources
        Vec src = filled(count);
        Vec copy(src);
        ASSERT_EQ(copy, src);
        EXPECT_NE(copy.data(), src.data());
        copy[0].tag = -1;
        EXPECT_EQ(src[0].tag, 0);

        Vec assigned = filled(3);
        assigned = src;
        EXPECT_EQ(assigned, src);
        EXPECT_NE(assigned.data(), src.data());
    }
}

TEST(SmallVector, MoveStealsTheHeapBlock)
{
    Vec src = filled(5);
    const Pair *block = src.data();
    Vec moved(std::move(src));
    EXPECT_EQ(moved.data(), block);
    EXPECT_EQ(moved.size(), 5u);
    EXPECT_EQ(moved.capacity(), 8u);
    // The source is left empty and inline, ready for reuse.
    EXPECT_TRUE(src.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(inlineStorage(src));
    src.push_back({1, 1});
    EXPECT_EQ(src.size(), 1u);

    Vec assigned = filled(4);
    Vec donor = filled(6);
    const Pair *donor_block = donor.data();
    assigned = std::move(donor);
    EXPECT_EQ(assigned.data(), donor_block);
    EXPECT_EQ(assigned, filled(6));
}

TEST(SmallVector, MoveCopiesTheInlineBuffer)
{
    Vec src = filled(2);
    Vec moved(std::move(src));
    EXPECT_TRUE(inlineStorage(moved));
    EXPECT_EQ(moved, filled(2));
    EXPECT_TRUE(src.empty()); // NOLINT(bugprone-use-after-move)

    Vec assigned = filled(7); // spilled target releases its block
    Vec donor = filled(1);
    assigned = std::move(donor);
    EXPECT_TRUE(inlineStorage(assigned));
    EXPECT_EQ(assigned.capacity(), 2u);
    EXPECT_EQ(assigned, filled(1));
}

TEST(SmallVector, MovedFromSpilledVectorIsInlineAgain)
{
    Vec src = filled(5);
    Vec moved(std::move(src));
    // The heap pointer lived in the inline buffer; the source now
    // holds elements there again.
    EXPECT_TRUE(src.empty()); // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(src.capacity(), 2u);
    EXPECT_TRUE(inlineStorage(src));
    src.push_back({1, 1});
    src.push_back({2, 2});
    EXPECT_TRUE(inlineStorage(src));
    EXPECT_EQ(src.capacity(), 2u);
    EXPECT_EQ(src[1], (Pair{2, 2}));
    EXPECT_EQ(moved, filled(5));

    Vec donor = filled(3);
    Vec assigned;
    assigned = std::move(donor);
    EXPECT_EQ(donor.capacity(), 2u); // NOLINT(bugprone-use-after-move)
    EXPECT_TRUE(inlineStorage(donor));
    donor.push_back({7, 7});
    EXPECT_TRUE(inlineStorage(donor));
    EXPECT_EQ(assigned, filled(3));
}

TEST(SmallVector, ClearKeepsTheHeapBlockButACopyIsInline)
{
    Vec v = filled(5);
    const Pair *block = v.data();
    v.clear();
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.capacity(), 8u);
    EXPECT_EQ(v.data(), block);

    // Refilling reuses the block rather than going back inline.
    v.push_back({4, 4});
    EXPECT_EQ(v.data(), block);
    v.clear();

    const Vec copy(v);
    EXPECT_TRUE(copy.empty());
    EXPECT_EQ(copy.capacity(), 2u);
    EXPECT_TRUE(inlineStorage(copy));
    Vec assigned = filled(6);
    assigned = v;
    EXPECT_EQ(assigned.capacity(), 2u);
    EXPECT_TRUE(inlineStorage(assigned));
}

TEST(SmallVector, SelfAssignmentIsANoOp)
{
    for (int count : {2, 6}) {
        Vec v = filled(count);
        const Pair *data = v.data();
        Vec &alias = v;
        v = alias;
        EXPECT_EQ(v.data(), data);
        EXPECT_EQ(v, filled(count));
        v = std::move(alias);
        EXPECT_EQ(v.data(), data);
        EXPECT_EQ(v, filled(count));
    }
}

TEST(SmallVector, SortsThroughBeginEnd)
{
    Vec v;
    for (int key : {5, 3, 9, 1, 7})
        v.push_back({key, key});
    std::sort(v.begin(), v.end(),
              [](const Pair &a, const Pair &b) { return a.key < b.key; });
    std::int64_t last = -1;
    for (const Pair &p : v) {
        EXPECT_GT(p.key, last);
        last = p.key;
    }
    EXPECT_EQ(v.size(), 5u);
}

TEST(SmallVector, EqualityComparesSizeThenElements)
{
    EXPECT_EQ(filled(3), filled(3));
    EXPECT_FALSE(filled(3) == filled(4));
    Vec a = filled(3);
    a[2].tag = 0;
    EXPECT_FALSE(a == filled(3));
    // Storage location does not matter: inline == spilled-and-cleared.
    Vec b = filled(5);
    b.clear();
    b.push_back({0, 0});
    EXPECT_EQ(b, filled(1));
}

// Regression: growing a full, spilled vector used to free the old
// block before copying an argument that pointed into it (caught by
// AddressSanitizer as a heap-use-after-free).
TEST(SmallVector, PushBackOfOwnElementSurvivesGrowth)
{
    Vec v = filled(4);
    ASSERT_EQ(v.size(), v.capacity());
    ASSERT_FALSE(inlineStorage(v));
    v.push_back(v[1]);
    EXPECT_EQ(v.size(), 5u);
    EXPECT_EQ(v.back(), (Pair{1, 10}));

    while (v.size() < v.capacity())
        v.push_back({-1, -1});
    v.emplace_back(v.front());
    EXPECT_EQ(v.back(), (Pair{0, 0}));

    // The same call at the inline-to-heap spill.
    Vec small = filled(2);
    small.push_back(small[0]);
    EXPECT_EQ(small.back(), (Pair{0, 0}));
}

TEST(SmallVector, SizeAndCapacityAreThirtyTwoBit)
{
    // Only a 32-bit size and capacity beyond the inline buffer, which
    // is at least one pointer wide since it holds the heap pointer
    // once spilled; size() still speaks std::size_t.
    static_assert(sizeof(SmallVector<std::uint64_t, 2>) ==
                  2 * sizeof(std::uint64_t) + 2 * sizeof(std::uint32_t));
    static_assert(sizeof(SmallVector<std::uint64_t, 1>) == 16);
    static_assert(sizeof(SmallVector<char, 1>) ==
                  sizeof(void *) + 2 * sizeof(std::uint32_t));
    static_assert(
        std::is_same_v<decltype(std::declval<Vec>().size()),
                       std::size_t>);
    static_assert(
        std::is_same_v<decltype(std::declval<Vec>().capacity()),
                       std::size_t>);

    SmallVector<char, 1> v;
    EXPECT_DEATH(v.reserve(std::size_t{1} << 33), "32-bit");
}

} // namespace
} // namespace gaia
