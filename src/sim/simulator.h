/**
 * @file
 * The GAIA cluster simulator.
 *
 * Replays a job trace against a scheduling policy and a resource
 * strategy over a carbon-intensity trace, producing per-job and
 * cluster-level accounting. This is the C++ counterpart of the
 * paper's GAIA-Simulator: identical interfaces and accounting to the
 * AWS ParallelCluster deployment, minus instance spin-up/teardown
 * overheads (which the paper's normalized metrics neglect too).
 *
 * The one entry point is simulateChecked(): it validates the setup
 * and returns a Status for inconsistent input (missing
 * collaborators, a carbon trace that ends before the last job
 * arrives, an invalid cluster/strategy combination), then rides the
 * VirtualClockDriver (sim/driver.h) over the online engine.
 * Assemble the setup with SimulationSetup::Builder rather than
 * writing struct fields by hand — build() runs the same validation,
 * so errors surface where the setup is constructed, not where it is
 * run.
 */

#ifndef GAIA_SIM_SIMULATOR_H
#define GAIA_SIM_SIMULATOR_H

#include <vector>

#include "core/cis.h"
#include "core/policy.h"
#include "core/queues.h"
#include "sim/cluster.h"
#include "sim/results.h"
#include "workload/job.h"

namespace gaia {

class FaultInjector;

/** All inputs of one simulation run. */
struct SimulationSetup
{
    const JobTrace *trace = nullptr;
    const SchedulingPolicy *policy = nullptr;
    const QueueConfig *queues = nullptr;
    const CarbonInfoSource *cis = nullptr;
    ClusterConfig cluster;
    ResourceStrategy strategy = ResourceStrategy::OnDemandOnly;
    /** Optional cluster-side fault injector; nullptr = no faults. */
    const FaultInjector *faults = nullptr;
    /**
     * Optional scenario-wide elastic profile applied to every job
     * that does not carry an enabled profile of its own; nullptr
     * (the default) leaves every job fixed-width. Traces are shared
     * (and cached) across cells, so the profile is applied per-job
     * at submit time, never onto the trace itself.
     */
    const ElasticProfile *elastic = nullptr;

    class Builder;
};

/**
 * Fluent assembly of a SimulationSetup. All referenced
 * collaborators must outlive the built setup's run. build()
 * validates the whole setup (the same checks simulateChecked()
 * runs), so a bad combination errors at construction:
 *
 *     GAIA_TRY_ASSIGN(const SimulationSetup setup,
 *                     SimulationSetup::Builder()
 *                         .trace(trace)
 *                         .policy(*policy)
 *                         .queues(queues)
 *                         .cis(cis)
 *                         .cluster(cluster)
 *                         .strategy(ResourceStrategy::SpotReserved)
 *                         .build());
 *     GAIA_TRY_ASSIGN(const SimulationResult result,
 *                     simulateChecked(setup));
 */
class SimulationSetup::Builder
{
  public:
    Builder &
    trace(const JobTrace &trace)
    {
        setup_.trace = &trace;
        return *this;
    }

    Builder &
    policy(const SchedulingPolicy &policy)
    {
        setup_.policy = &policy;
        return *this;
    }

    Builder &
    queues(const QueueConfig &queues)
    {
        setup_.queues = &queues;
        return *this;
    }

    Builder &
    cis(const CarbonInfoSource &cis)
    {
        setup_.cis = &cis;
        return *this;
    }

    Builder &
    cluster(const ClusterConfig &cluster)
    {
        setup_.cluster = cluster;
        return *this;
    }

    Builder &
    strategy(ResourceStrategy strategy)
    {
        setup_.strategy = strategy;
        return *this;
    }

    /** nullptr (the default) disables fault injection. */
    Builder &
    faults(const FaultInjector *faults)
    {
        setup_.faults = faults;
        return *this;
    }

    /** nullptr (the default) leaves every job fixed-width. */
    Builder &
    elastic(const ElasticProfile *elastic)
    {
        setup_.elastic = elastic;
        return *this;
    }

    /** Validate and return the setup, or the Status explaining
     *  what is wrong with it. */
    Result<SimulationSetup> build() const;

  private:
    SimulationSetup setup_;
};

/**
 * Full input validation of a setup: required collaborators present,
 * the carbon trace covers the arrivals, the cluster/strategy
 * combination is consistent, fault and elastic specs are valid.
 * Shared by SimulationSetup::Builder::build() and
 * simulateChecked(), so the two can never drift.
 */
Status validateSetup(const SimulationSetup &setup);

/**
 * Run one simulation; returns a Status (instead of dying) on an
 * inconsistent setup. Untrusted configuration comes through here.
 * `storage`'s outcome and segment columns are recycled as the
 * result's (see OnlineScheduler::reserveJobs): pass a previous
 * result to rerun without reallocating them.
 */
Result<SimulationResult>
simulateChecked(const SimulationSetup &setup,
                SimulationResult storage = {});

} // namespace gaia

#endif // GAIA_SIM_SIMULATOR_H
