#include "common/executor.h"

#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/strings.h"

namespace gaia {

namespace {

/** Process-wide worker-count override; 0 means "not set". */
std::atomic<unsigned> thread_override{0};

} // namespace

void
setParallelThreads(unsigned threads)
{
    thread_override.store(threads, std::memory_order_relaxed);
}

unsigned
defaultParallelThreads()
{
    const unsigned override_count =
        thread_override.load(std::memory_order_relaxed);
    if (override_count > 0)
        return override_count;
    if (const char *env = std::getenv("GAIA_THREADS")) {
        const Result<unsigned> parsed =
            parseThreadCount(env, "GAIA_THREADS");
        if (parsed.isOk())
            return parsed.value();
        static std::once_flag warned;
        std::call_once(warned, [&parsed] {
            warn("ignoring invalid GAIA_THREADS value: ",
                 parsed.status().message());
        });
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 2;
}

Result<unsigned>
parseThreadCount(std::string_view text, std::string_view context)
{
    constexpr unsigned kMax = std::numeric_limits<unsigned>::max();
    GAIA_TRY_ASSIGN(const std::int64_t n, tryParseInt(text, context));
    GAIA_REQUIRE(n > 0 && n <= kMax, context,
                 " must be positive and at most ", kMax, ", got ", n);
    return static_cast<unsigned>(n);
}

} // namespace gaia
