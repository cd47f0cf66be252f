/**
 * @file
 * WallClockDriver — the streaming driver of OnlineScheduler.
 *
 * Runs on the daemon's single consumer thread: drains the MPSC
 * submission queue into the engine, paces virtual time against the
 * wall clock at an acceleration factor, and counts carbon-source
 * availability edges. The correctness story is *driver parity*: a
 * sorted job stream produces a byte-identical result to the batch
 * VirtualClockDriver replay of the same jobs, at any acceleration
 * and any wall-clock timing.
 *
 * The invariant that makes parity hold unconditionally is the
 * *release horizon*: the driver never advances virtual time past
 * `max_submit_released - 1`. Job arrivals dispatch at the highest
 * event priority, so as long as every arrival at timestamp T is
 * enqueued before the clock enters T, the engine's (time, priority,
 * sequence) order — and with it every placement, eviction draw, and
 * accounting record — is identical to the batch feed. Wall-clock
 * pacing can only make the clock *lag* the stream, never lead it,
 * so timing jitter and acceleration cannot reorder anything.
 *
 * Out-of-order submissions (a producer streaming an unsorted trace)
 * are therefore rejected by the engine's submit check once the
 * clock has passed their submit instant; the driver counts them and
 * moves on — best-effort admission, never a crash.
 */

#ifndef GAIA_SERVE_WALL_CLOCK_DRIVER_H
#define GAIA_SERVE_WALL_CLOCK_DRIVER_H

#include <atomic>
#include <cstdint>

#include "serve/submission_queue.h"
#include "sim/online.h"

namespace gaia::serve {

/** Streaming driver; see the file comment. */
class WallClockDriver
{
  public:
    /**
     * `engine`, `queue` and `source` must outlive the driver.
     * `accel` is the virtual seconds advanced per wall-clock second;
     * <= 0, NaN and infinity run unpaced: the clock snaps straight
     * to the release horizon, i.e. "as fast as the stream allows".
     * `source` is watched for availability edges, which are counted
     * in the serve.source_updates metric.
     */
    WallClockDriver(OnlineScheduler &engine, SubmissionQueue &queue,
                    double accel, const CarbonInfoSource &source);

    /**
     * The consumer loop: drain the queue, pace the clock, repeat —
     * until `stop` is set, then release any stragglers, drain the
     * engine, and return. Call once, from the one consumer thread.
     */
    void run(const std::atomic<bool> &stop);

    /** Jobs successfully released into the engine. */
    std::uint64_t
    released() const
    {
        return released_.load(std::memory_order_relaxed);
    }

    /** Submissions the engine rejected (typically out-of-order
     *  arrivals whose submit instant had already passed). */
    std::uint64_t
    rejectedLate() const
    {
        return rejected_late_.load(std::memory_order_relaxed);
    }

    /** Virtual time as of the last tick (readable cross-thread). */
    Seconds
    simNow() const
    {
        return sim_now_.load(std::memory_order_relaxed);
    }

  private:
    /** Pop everything currently queued into the engine. */
    bool drainQueue();
    /** Advance the clock to `target`, counting source edges. */
    void tickTo(Seconds target);

    OnlineScheduler &engine_;
    SubmissionQueue &queue_;
    double accel_;
    const CarbonInfoSource &source_;
    /** Highest submit instant released so far; -1 before the
     *  first release. */
    Seconds release_horizon_ = -1;
    bool source_available_ = true;
    std::atomic<std::uint64_t> released_{0};
    std::atomic<std::uint64_t> rejected_late_{0};
    std::atomic<Seconds> sim_now_{0};
};

} // namespace gaia::serve

#endif // GAIA_SERVE_WALL_CLOCK_DRIVER_H
