/**
 * @file
 * The GAIA cluster simulator.
 *
 * Replays a job trace against a scheduling policy and a resource
 * strategy over a carbon-intensity trace, producing per-job and
 * cluster-level accounting. This is the C++ counterpart of the
 * paper's GAIA-Simulator: identical interfaces and accounting to the
 * AWS ParallelCluster deployment. Instance spin-up is an opt-in cost
 * (ClusterConfig::startup_overhead, 0 by default as in the paper's
 * simulator): each non-reserved slice then bills its spin-up and
 * emits its carbon without doing work.
 *
 * The one entry point is simulateChecked(): fill a SimulationSetup's
 * fields and pass it in. It validates the setup and returns a Status
 * for inconsistent input (missing collaborators, a carbon trace that
 * ends before the last job arrives, an invalid cluster/strategy
 * combination), then rides the VirtualClockDriver (sim/driver.h)
 * over the engine makeEngine() assembles. The serving daemon builds
 * its engine through makeEngine() too, so a batch run and a streamed
 * run of one setup are configured identically.
 */

#ifndef GAIA_SIM_SIMULATOR_H
#define GAIA_SIM_SIMULATOR_H

#include <vector>

#include "core/cis.h"
#include "core/policy.h"
#include "core/queues.h"
#include "sim/cluster.h"
#include "sim/online.h"
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
     * Optional elastic profile of the run, applied to every job;
     * nullptr (the default) leaves every job fixed-width. The
     * engine hands it to the policy with each plan, so the shared
     * (and cached) trace never carries it.
     */
    const ElasticProfile *elastic = nullptr;
};

/**
 * Full input validation of a setup: required collaborators present,
 * the carbon trace covers the arrivals, the cluster/strategy
 * combination is consistent, fault and elastic specs are valid.
 * simulateChecked() runs it on every setup it is given.
 */
Status validateSetup(const SimulationSetup &setup);

/**
 * Assemble the engine for a setup validateSetup() accepted: derive a
 * zero reservation horizon from the trace and queue limits (see
 * defaultReservationHorizon), create the OnlineScheduler, size its
 * columns for the trace's jobs with `storage` recycled (see
 * OnlineScheduler::reserveJobs), and install the scenario-wide
 * elastic profile. The engine copies the profile, so `setup.elastic`
 * need not outlive this call; every other collaborator must outlive
 * the engine. Both the batch simulator and the serving daemon build
 * their engine here.
 */
Result<OnlineScheduler> makeEngine(const SimulationSetup &setup,
                                   SimulationResult storage = {});

/**
 * Run one simulation; returns a Status (instead of dying) on an
 * inconsistent setup. Untrusted configuration comes through here.
 * `storage`'s outcome, segment and per-job columns are recycled as
 * the result's (see OnlineScheduler::reserveJobs): pass a previous
 * result to rerun without reallocating them.
 */
Result<SimulationResult>
simulateChecked(const SimulationSetup &setup,
                SimulationResult storage = {});

} // namespace gaia

#endif // GAIA_SIM_SIMULATOR_H
