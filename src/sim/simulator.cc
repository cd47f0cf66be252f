#include "sim/simulator.h"

#include <utility>

#include "common/logging.h"
#include "fault/injector.h"
#include "sim/driver.h"

namespace gaia {

Status
validateSetup(const SimulationSetup &setup)
{
    GAIA_REQUIRE(setup.trace != nullptr,
                 "simulation setup has no job trace");
    GAIA_REQUIRE(setup.policy != nullptr,
                 "simulation setup has no policy");
    GAIA_REQUIRE(setup.queues != nullptr,
                 "simulation setup has no queue configuration");
    GAIA_REQUIRE(setup.cis != nullptr,
                 "simulation setup has no carbon source");
    if (setup.trace->jobCount() > 0) {
        // The carbon trace clamps out-of-range queries, so a
        // schedule running past its end would silently account the
        // last slot's intensity — reject horizons that cannot even
        // cover the arrivals.
        GAIA_REQUIRE(
            setup.cis->trace().duration() >
                setup.trace->lastArrival(),
            "carbon trace ends at ", setup.cis->trace().duration(),
            "s but the last job arrives at ",
            setup.trace->lastArrival(),
            "s; the job and carbon horizons do not match");
    }
    GAIA_TRY(validateClusterSetup(setup.cluster, setup.strategy));
    if (setup.faults != nullptr)
        GAIA_TRY(setup.faults->spec().validate());
    if (setup.elastic != nullptr)
        GAIA_TRY(setup.elastic->validate());
    return Status::ok();
}

Result<OnlineScheduler>
makeEngine(const SimulationSetup &setup, SimulationResult storage)
{
    // The reservation horizon is resolved up front: it depends only
    // on the trace and queue limits, so every policy compared on one
    // scenario, batch or streamed, pays the same upfront cost.
    ClusterConfig cluster = setup.cluster;
    if (cluster.reservation_horizon == 0) {
        cluster.reservation_horizon =
            defaultReservationHorizon(*setup.trace, *setup.queues);
    }
    GAIA_TRY_ASSIGN(
        OnlineScheduler engine,
        OnlineScheduler::create(*setup.policy, *setup.queues,
                                *setup.cis, cluster, setup.strategy,
                                setup.trace->name(), setup.faults));
    engine.reserveJobs(setup.trace->jobCount(), std::move(storage));
    if (setup.elastic != nullptr)
        engine.setDefaultElasticProfile(*setup.elastic);
    return engine;
}

Result<SimulationResult>
simulateChecked(const SimulationSetup &setup,
                SimulationResult storage)
{
    GAIA_TRY(validateSetup(setup));
    GAIA_TRY_ASSIGN(OnlineScheduler scheduler,
                    makeEngine(setup, std::move(storage)));
    VirtualClockDriver driver(scheduler);
    GAIA_TRY(driver.replay(*setup.trace));
    SimulationResult result = driver.finish();

    if (setup.cluster.reservation_horizon == 0 &&
        setup.faults == nullptr) {
        // The derived horizon is a guarantee, not a user choice;
        // finishing past it would be an engine bug, which the
        // OnlineScheduler already treats as soft for explicit
        // horizons — re-assert strictly here. Faulted runs are
        // exempt: stretched, delayed, and storm-restarted jobs can
        // legitimately overrun a horizon derived from the nominal
        // trace.
        for (const JobOutcome &o : result.outcomes) {
            GAIA_ASSERT(result.finish(o) <= result.horizon, "job ",
                        result.job(o).id,
                        " finished past the derived horizon");
        }
    }
    return result;
}

} // namespace gaia
