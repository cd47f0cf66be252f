#include "serve/daemon.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

#include "common/logging.h"
#include "common/obs.h"
#include "core/cis.h"
#include "sim/simulator.h"

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

Result<std::unique_ptr<ServeDaemon>>
ServeDaemon::start(const ServeConfig &config)
{
    GAIA_REQUIRE(config.queue_capacity > 0,
                 "serve queue capacity must be positive");

    // One-shot cache: a daemon realizes its scenario exactly once,
    // so there is no sweep to share assets with.
    AssetCache cache;
    GAIA_TRY_ASSIGN(RealizedScenario realized,
                    realizeScenario(config.scenario, cache));

    // The batch path's validation and engine assembly, so a streamed
    // run of the calibration workload is configured exactly like
    // gaia_run's. Built before `realized` moves: the setup points
    // into it, and makeEngine copies the elastic profile out.
    GAIA_TRY_ASSIGN(const SimulationSetup setup, realized.setup());
    GAIA_TRY_ASSIGN(OnlineScheduler engine, makeEngine(setup));

    // Cannot use make_unique: the constructor is private.
    std::unique_ptr<ServeDaemon> daemon(new ServeDaemon(
        std::move(realized), std::move(engine), config));
    return daemon;
}

ServeDaemon::ServeDaemon(RealizedScenario realized,
                         OnlineScheduler engine,
                         const ServeConfig &config)
    : realized_(std::move(realized)), engine_(std::move(engine)),
      queue_(config.queue_capacity), accel_(config.accel)
{
    engine_.setListener(this);
    // The consumer submits every job, but the engine's job column is
    // allocated here, beside the engine's other columns.
    engine_.reserveStream();

    // Spawned last: every member the consumer touches is live.
    consumer_ = std::thread([this] { consume(); });
}

ServeDaemon::~ServeDaemon()
{
    stop_.store(true, std::memory_order_release);
    if (consumer_.joinable())
        consumer_.join();
}

Status
ServeDaemon::submit(const Job &job)
{
    if (draining_.load(std::memory_order_acquire)) {
        return Status::failedPrecondition(
            "daemon is draining; no further submissions accepted");
    }
    GAIA_TRY(validateJob(job));
    Job copy = job;
    if (!queue_.tryPush(copy)) {
        rejected_full_.fetch_add(1, std::memory_order_relaxed);
        return Status::resourceExhausted(
            "submission queue is full (", queue_.capacity(),
            " slots); retry later");
    }
    accepted_.fetch_add(1, std::memory_order_relaxed);
    return Status::ok();
}

ServeStats
ServeDaemon::stats() const
{
    ServeStats s;
    s.accepted = accepted_.load(std::memory_order_relaxed);
    s.rejected_full = rejected_full_.load(std::memory_order_relaxed);
    s.rejected_late = rejected_late_.load(std::memory_order_relaxed);
    s.released = released_.load(std::memory_order_relaxed);
    s.completed = completed_.load(std::memory_order_relaxed);
    s.sim_now = sim_now_.load(std::memory_order_relaxed);
    s.queue_depth = queue_.sizeApprox();
    s.queue_capacity = queue_.capacity();
    return s;
}

Result<SimulationResult>
ServeDaemon::drain()
{
    if (draining_.exchange(true, std::memory_order_acq_rel)) {
        return Status::failedPrecondition(
            "daemon already drained (drain() is one-shot)");
    }
    stop_.store(true, std::memory_order_release);
    consumer_.join();
    // The consumer released every queued job and ran the engine dry
    // before exiting; all that remains is closing the books.
    return engine_.finalize();
}

const JobTrace &
ServeDaemon::calibrationTrace() const
{
    return *realized_.trace;
}

void
ServeDaemon::onJobEnd(Seconds at, JobId id)
{
    (void)at;
    (void)id;
    completed_.fetch_add(1, std::memory_order_relaxed);
}

bool
ServeDaemon::releaseQueued()
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
ServeDaemon::tickTo(Seconds target)
{
    // Count availability edges of the carbon source as they come
    // into effect. The engine re-probes the source lazily at its
    // next planning decision, so an edge never alters a schedule and
    // polling at tick granularity is enough.
    const bool available =
        realized_.carbonSource().availableAt(target);
    if (available != source_available_) {
        source_available_ = available;
        c_source_updates.add(1);
    }
    engine_.advanceTo(target);
    sim_now_.store(target, std::memory_order_relaxed);
}

void
ServeDaemon::consume()
{
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    for (;;) {
        bool did_work = releaseQueued();

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

        if (stop_.load(std::memory_order_acquire)) {
            // Shutdown: accept everything still queued (producers
            // are expected to have stopped), then run the engine to
            // completion — drain-on-shutdown never discards work.
            releaseQueued();
            engine_.drain();
            sim_now_.store(engine_.now(), std::memory_order_relaxed);
            return;
        }
        if (!did_work)
            std::this_thread::sleep_for(kIdleSleep);
    }
}

} // namespace gaia::serve
