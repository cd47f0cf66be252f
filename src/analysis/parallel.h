/**
 * @file
 * Parallel index loop for parameter sweeps: simulations are
 * independent, so the figure harnesses and SweepEngine fan each
 * configuration out across hardware threads.
 *
 * parallelFor is a flat fork-join loop. Each call starts
 * min(cap, n) − 1 fresh threads, runs one more runner inline on the
 * calling thread, and joins them all; every runner claims indices
 * from one shared atomic counter. No threads outlive a call: a
 * persistent work-stealing pool measured no faster on the sweeps
 * and held more memory (DESIGN.md, "Parallel execution"). Nested
 * calls compose by starting their own threads.
 *
 * The first exception thrown by `fn(i)` stops the dispatch of new
 * indices, every call already running finishes, and the exception
 * is rethrown on the calling thread. If starting a thread fails,
 * the runners already started are stopped and joined before the
 * error propagates.
 *
 * The worker cap resolves, in order: the explicit `threads`
 * argument, setParallelThreads() (e.g. a bench's --threads flag),
 * the GAIA_THREADS environment variable, and finally
 * std::thread::hardware_concurrency() (common/executor.h).
 */

#ifndef GAIA_ANALYSIS_PARALLEL_H
#define GAIA_ANALYSIS_PARALLEL_H

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "common/executor.h"

namespace gaia {

/**
 * Invoke `fn(i)` for i in [0, n) across up to `threads` workers
 * (0 = defaultParallelThreads()), one of them the calling thread.
 * `fn` must be safe to call concurrently for distinct indices;
 * results should be written to pre-sized slots indexed by i. If any
 * invocation throws, no new indices are dispatched, every in-flight
 * call completes, and the first exception is rethrown here.
 */
template <typename Fn>
void
parallelFor(std::size_t n, Fn fn, unsigned threads = 0)
{
    if (n == 0)
        return;
    unsigned cap = threads > 0 ? threads : defaultParallelThreads();
    cap = static_cast<unsigned>(std::min<std::size_t>(cap, n));

    std::atomic<std::size_t> next{0};
    std::atomic<bool> stop{false};
    std::exception_ptr first_error;
    std::mutex error_mutex;

    const auto runner = [&] {
        while (!stop.load(std::memory_order_relaxed)) {
            const std::size_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
                stop.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };

    std::vector<std::thread> workers;
    workers.reserve(cap - 1);
    try {
        for (unsigned w = 0; w + 1 < cap; ++w)
            workers.emplace_back(runner);
    } catch (...) {
        stop.store(true, std::memory_order_relaxed);
        for (std::thread &t : workers)
            t.join();
        throw;
    }
    runner();
    for (std::thread &t : workers)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

} // namespace gaia

#endif // GAIA_ANALYSIS_PARALLEL_H
