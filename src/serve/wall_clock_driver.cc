#include "serve/wall_clock_driver.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "common/obs.h"
#include "core/cis.h"

namespace gaia::serve {

namespace {

obs::Counter &c_released = obs::counter("serve.jobs_released");
obs::Counter &c_rejected_late =
    obs::counter("serve.jobs_rejected_late");
obs::Counter &c_source_updates =
    obs::counter("serve.source_updates");

/** Idle backoff between polls when neither the queue nor the clock
 *  had work; long enough to not burn a core, short enough that a
 *  1000x-accelerated second costs at most a few percent of lag. */
constexpr auto kIdleSleep = std::chrono::microseconds(200);

} // namespace

WallClockDriver::WallClockDriver(OnlineScheduler &engine,
                                 SubmissionQueue &queue, double accel,
                                 const CarbonInfoSource &source)
    : engine_(engine), queue_(queue), accel_(accel), source_(source)
{
}

bool
WallClockDriver::drainQueue()
{
    bool did_work = false;
    Job job;
    while (queue_.tryPop(job)) {
        did_work = true;
        const Status released = engine_.submit(job);
        if (released.isOk()) {
            release_horizon_ =
                std::max(release_horizon_, job.submit);
            released_.fetch_add(1, std::memory_order_relaxed);
            c_released.add(1);
        } else {
            rejected_late_.fetch_add(1, std::memory_order_relaxed);
            c_rejected_late.add(1);
        }
    }
    return did_work;
}

void
WallClockDriver::tickTo(Seconds target)
{
    // Count availability edges of the carbon source as they come
    // into effect. The engine re-probes the source lazily at its
    // next planning decision, so an edge never alters a schedule and
    // polling at tick granularity is enough.
    const bool available = source_.availableAt(target);
    if (available != source_available_) {
        source_available_ = available;
        c_source_updates.add(1);
    }
    engine_.advanceTo(target);
    sim_now_.store(target, std::memory_order_relaxed);
}

void
WallClockDriver::run(const std::atomic<bool> &stop)
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    for (;;) {
        bool did_work = drainQueue();

        // The release-horizon bound (see the file comment): never
        // enter the timestamp of a job the stream may still be
        // delivering.
        Seconds target = release_horizon_ - 1;
        if (accel_ > 0.0) {
            const double wall =
                std::chrono::duration<double>(Clock::now() - start)
                    .count();
            // Compared in double and cast only below the horizon, so
            // a huge or infinite pace never overflows the cast.
            const double paced = std::floor(wall * accel_);
            if (paced < static_cast<double>(target))
                target = static_cast<Seconds>(paced);
        }
        if (target > engine_.now()) {
            tickTo(target);
            did_work = true;
        }

        if (stop.load(std::memory_order_acquire)) {
            // Shutdown: accept everything still queued (producers
            // are expected to have stopped), then run the engine to
            // completion — drain-on-shutdown never discards work.
            drainQueue();
            engine_.drain();
            sim_now_.store(engine_.now(),
                           std::memory_order_relaxed);
            return;
        }
        if (!did_work)
            std::this_thread::sleep_for(kIdleSleep);
    }
}

} // namespace gaia::serve
