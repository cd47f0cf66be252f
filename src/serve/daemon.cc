#include "serve/daemon.h"

#include <utility>

#include "common/logging.h"
#include "sim/simulator.h"

namespace gaia::serve {

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
      queue_(config.queue_capacity),
      driver_(engine_, queue_, config.accel, realized_.carbonSource())
{
    engine_.setListener(this);

    // Spawned last: every member the consumer touches is live.
    consumer_ = std::thread([this] { driver_.run(stop_); });
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
    Status offered = queue_.offer(job);
    if (!offered.isOk()) {
        rejected_full_.fetch_add(1, std::memory_order_relaxed);
        return offered;
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
    s.rejected_late = driver_.rejectedLate();
    s.released = driver_.released();
    s.completed = completed_.load(std::memory_order_relaxed);
    s.sim_now = driver_.simNow();
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

} // namespace gaia::serve
