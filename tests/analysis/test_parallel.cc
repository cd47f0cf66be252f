/** @file Tests for the fork-join sweep helper. */

#include "analysis/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <mutex>
#include <numeric>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

namespace gaia {
namespace {

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    const std::size_t n = 1000;
    for (const unsigned threads : {0u, 4u}) {
        std::vector<std::atomic<int>> hits(n);
        parallelFor(
            n, [&](std::size_t i) { hits[i].fetch_add(1); }, threads);
        for (std::size_t i = 0; i < n; ++i)
            EXPECT_EQ(hits[i].load(), 1) << i << " threads " << threads;
    }
}

TEST(ParallelFor, ResultsSlottedByIndex)
{
    const std::size_t n = 257;
    std::vector<double> out(n, 0.0);
    parallelFor(n,
                [&](std::size_t i) {
                    out[i] = static_cast<double>(i) * 2.0;
                });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_DOUBLE_EQ(out[i], 2.0 * static_cast<double>(i));
}

TEST(ParallelFor, ZeroAndSingleItem)
{
    for (const unsigned threads : {0u, 8u}) {
        int calls = 0;
        parallelFor(0, [&](std::size_t) { ++calls; }, threads);
        EXPECT_EQ(calls, 0);
        parallelFor(1, [&](std::size_t) { ++calls; }, threads);
        EXPECT_EQ(calls, 1);
    }
}

TEST(ParallelFor, ExplicitSingleThreadRunsInline)
{
    std::vector<std::size_t> order;
    parallelFor(
        5, [&](std::size_t i) { order.push_back(i); }, 1);
    EXPECT_EQ(order, (std::vector<std::size_t>{0, 1, 2, 3, 4}));
}

TEST(ParallelFor, MoreThreadsThanWork)
{
    std::atomic<int> sum{0};
    parallelFor(
        3, [&](std::size_t i) { sum += static_cast<int>(i); }, 16);
    EXPECT_EQ(sum.load(), 3);
}

TEST(ParallelFor, RunsOnTheCallerAndAtMostCapThreads)
{
    // Every spawned runner blocks in its first call until the
    // caller has run one, so the caller is sure to claim an index.
    const std::thread::id caller = std::this_thread::get_id();
    const std::pair<std::size_t, unsigned> cases[] = {{64, 4}, {3, 16}};
    for (const auto &[n, cap] : cases) {
        std::mutex mutex;
        std::set<std::thread::id> seen;
        std::atomic<bool> caller_ran{false};
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::seconds(10);
        parallelFor(
            n,
            [&](std::size_t) {
                const std::thread::id self = std::this_thread::get_id();
                {
                    const std::lock_guard<std::mutex> lock(mutex);
                    seen.insert(self);
                }
                if (self == caller) {
                    caller_ran.store(true);
                    return;
                }
                while (!caller_ran.load() &&
                       std::chrono::steady_clock::now() < deadline)
                    std::this_thread::yield();
            },
            cap);
        EXPECT_TRUE(caller_ran.load()) << "n " << n;
        EXPECT_EQ(seen.count(caller), 1u) << "n " << n;
        EXPECT_LE(seen.size(), std::min<std::size_t>(cap, n))
            << "n " << n;
    }
}

TEST(ParallelFor, PropagatesException)
{
    for (const unsigned threads : {1u, 4u}) {
        // Every call that started has finished by the time the
        // exception reaches the caller.
        std::atomic<int> started{0};
        std::atomic<int> finished{0};
        EXPECT_THROW(parallelFor(
                         100,
                         [&](std::size_t i) {
                             started.fetch_add(1);
                             if (i == 37)
                                 throw std::runtime_error("boom");
                             finished.fetch_add(1);
                         },
                         threads),
                     std::runtime_error)
            << "threads " << threads;
        EXPECT_EQ(finished.load() + 1, started.load())
            << "threads " << threads;
        // Inline, nothing past the throwing index is dispatched.
        if (threads == 1) {
            EXPECT_EQ(started.load(), 38);
        }
    }
}

TEST(ParallelFor, NestedLoopsCompose)
{
    // The sweep shape: outer groups, inner replicas, both parallel.
    std::atomic<int> cells{0};
    parallelFor(
        8,
        [&](std::size_t) {
            parallelFor(
                8, [&](std::size_t) { cells.fetch_add(1); }, 4);
        },
        4);
    EXPECT_EQ(cells.load(), 64);
}

} // namespace
} // namespace gaia
