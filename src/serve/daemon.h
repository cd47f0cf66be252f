/**
 * @file
 * ServeDaemon — the policy engine as a streaming service.
 *
 * Promotes the scenario machinery from "replay a trace" to "accept
 * a live stream": one daemon owns a realized scenario (assets,
 * policy, CIS, fault wiring), an OnlineScheduler, a bounded MPSC
 * submission queue (common/mpsc_queue.h), and the consumer thread
 * that feeds the engine. Producers call submit() from any thread; a
 * job that fails validateJob() is refused there, and a full queue
 * surfaces as a ResourceExhausted Status — the backpressure signal —
 * rather than blocking the producer or growing without bound.
 *
 * The consumer thread is the engine's streaming driver: it releases
 * queued jobs into the engine, paces virtual time against the wall
 * clock at ServeConfig::accel, and counts carbon-source availability
 * edges (serve.source_updates). The correctness story is *driver
 * parity*: a sorted job stream produces a byte-identical result to
 * the batch VirtualClockDriver replay of the same jobs, at any
 * acceleration and any wall-clock timing.
 *
 * The invariant that makes parity hold unconditionally is the
 * *release horizon*: the consumer never advances virtual time past
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
 * clock has passed their submit instant; the consumer counts them
 * (rejected_late) and moves on — best-effort admission, never a
 * crash.
 *
 * Lifecycle: start() realizes the scenario and spawns the consumer;
 * submit()/stats() run for as long as the stream lasts; drain()
 * stops the consumer, runs the engine to completion, and returns
 * the same SimulationResult the batch simulator would have produced
 * for the same released stream — pinned byte-identical by the
 * driver-parity tests via resultFingerprint().
 *
 * Setup parity: start() validates the realized scenario with the
 * batch path's validateSetup() and builds its engine with the batch
 * path's makeEngine() (sim/simulator.h), so it rejects what gaia_run
 * rejects and configures the engine as gaia_run does. In particular
 * a live daemon cannot see the future, so the reserved-capacity
 * horizon makeEngine() derives comes from the scenario's
 * *calibration workload* (the trace the scenario realizes anyway to
 * calibrate queue averages). Streams drawn from that workload — the
 * serving deployment model, and what the parity harness replays —
 * therefore account reserved cost exactly like the batch run.
 */

#ifndef GAIA_SERVE_DAEMON_H
#define GAIA_SERVE_DAEMON_H

#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>

#include "analysis/scenario.h"
#include "common/mpsc_queue.h"
#include "sim/online.h"

namespace gaia::serve {

/** Daemon configuration: what to serve and how fast. */
struct ServeConfig
{
    /** The scenario whose assets, policy, and cluster the daemon
     *  serves (the workload spec is the calibration workload). */
    ScenarioSpec scenario;

    /** Virtual seconds per wall second; <= 0 = unpaced (run as
     *  fast as the stream allows). */
    double accel = 1000.0;

    /** Submission-queue capacity (rounded up to a power of two);
     *  the admission high-water mark. */
    std::size_t queue_capacity = 1 << 16;
};

/** One consistent snapshot of the daemon's counters. */
struct ServeStats
{
    /** Offers accepted into the queue. */
    std::uint64_t accepted = 0;
    /** Offers rejected at the high-water mark (backpressure). */
    std::uint64_t rejected_full = 0;
    /** Releases the engine refused (out-of-order arrivals). */
    std::uint64_t rejected_late = 0;
    /** Jobs released into the engine. */
    std::uint64_t released = 0;
    /** Jobs whose final segment settled (listener callbacks). */
    std::uint64_t completed = 0;
    /** Virtual time of the engine's clock. */
    Seconds sim_now = 0;
    /** Racy queue occupancy estimate. */
    std::size_t queue_depth = 0;
    std::size_t queue_capacity = 0;
};

/** Streaming scheduling daemon; see the file comment. */
class ServeDaemon final : public ProtocolListener
{
  public:
    /**
     * Realize and validate the scenario, build the engine with
     * makeEngine() over its calibration workload, and spawn the
     * consumer thread. Errors on any invalid input, never exits.
     */
    static Result<std::unique_ptr<ServeDaemon>>
    start(const ServeConfig &config);

    /** Stops the consumer (discarding a result never drained). */
    ~ServeDaemon() override;

    ServeDaemon(const ServeDaemon &) = delete;
    ServeDaemon &operator=(const ServeDaemon &) = delete;

    /**
     * Offer one job to the stream. Thread-safe, lock-free, callable
     * from any number of producers; InvalidArgument for a job
     * validateJob() rejects, ResourceExhausted past the queue's
     * high-water mark, FailedPrecondition after drain().
     */
    Status submit(const Job &job);

    /** Counter snapshot; thread-safe. */
    ServeStats stats() const;

    /**
     * End the stream: stop accepting, release everything still
     * queued, run the engine to completion, and close the books.
     * Callable once; the result's fingerprint is the parity oracle
     * against the batch run of the same stream.
     */
    Result<SimulationResult> drain();

    /**
     * The realized calibration trace — what a parity harness
     * streams to reproduce the batch run, and what the reservation
     * horizon was derived from.
     */
    const JobTrace &calibrationTrace() const;

    /** ProtocolListener: a job's final segment settled. Runs on
     *  the consumer thread via the engine's event queue. */
    void onJobEnd(Seconds at, JobId id) override;

  private:
    ServeDaemon(RealizedScenario realized, OnlineScheduler engine,
                const ServeConfig &config);

    /**
     * The consumer loop: release what is queued, pace the clock,
     * repeat — until stop_ is set, then release any stragglers,
     * drain the engine, and return. Runs on consumer_ only.
     */
    void consume();
    /** Pop everything currently queued into the engine. */
    bool releaseQueued();
    /** Advance the clock to `target`, counting source edges. */
    void tickTo(Seconds target);

    RealizedScenario realized_;
    OnlineScheduler engine_;
    MpscQueue<Job> queue_;
    /** Virtual seconds per wall second; <= 0, NaN and infinity run
     *  unpaced: the clock snaps straight to the release horizon. */
    const double accel_;

    // One cache line per side: a shared line slows serve_stream (DESIGN.md).
    /** Producer side: read or bumped by every submit(). */
    alignas(64) std::atomic<bool> draining_{false};
    std::atomic<std::uint64_t> accepted_{0};
    std::atomic<std::uint64_t> rejected_full_{0};

    /** Consumer side: written by the consumer thread (stop_ once,
     *  by drain() or the destructor). */
    alignas(64) std::atomic<bool> stop_{false};
    /** Highest submit instant released so far; -1 before the
     *  first release. */
    Seconds release_horizon_ = -1;
    bool source_available_ = true;
    std::atomic<std::uint64_t> released_{0};
    std::atomic<std::uint64_t> rejected_late_{0};
    std::atomic<std::uint64_t> completed_{0};
    std::atomic<Seconds> sim_now_{0};

    std::thread consumer_;
};

} // namespace gaia::serve

#endif // GAIA_SERVE_DAEMON_H
