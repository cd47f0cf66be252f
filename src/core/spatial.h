/**
 * @file
 * Spatial workload shifting across geo-distributed regions — the
 * paper's stated future work (§2.1: "Spatial batch scheduling
 * across geo-distributed clusters is left for future research";
 * §9).
 *
 * Grid carbon intensity varies up to ~9x across regions at any
 * instant, far more than the ~3x temporal variation within one
 * region, so letting each job choose *where* as well as *when* to
 * run can unlock savings a single-region scheduler cannot. The
 * SpatialPlanner evaluates every (region, start-time) candidate
 * within the job's waiting window using each region's CIS and a
 * per-job temporal policy, assigns the job to the best region, and
 * the per-region subsets are then simulated independently (each
 * region is an elastic on-demand cluster; data-transfer and
 * data-gravity constraints are out of scope, as in the temporal
 * paper).
 */

#ifndef GAIA_CORE_SPATIAL_H
#define GAIA_CORE_SPATIAL_H

#include <string>
#include <vector>

#include "core/cis.h"
#include "core/policy.h"
#include "core/queues.h"
#include "workload/job.h"

namespace gaia {

/** One job's spatial decision. */
struct SpatialAssignment
{
    JobId job = 0;
    /** Index into the planner's region list. */
    std::size_t region_index = 0;
    /** The temporal plan inside the chosen region. */
    SchedulePlan plan;
};

/** Result of spatially partitioning a trace. */
struct SpatialPartition
{
    /** Per-region job subsets, aligned with the region list. */
    std::vector<JobTrace> region_traces;
    /** Per-job assignments in arrival order. */
    std::vector<SpatialAssignment> assignments;
};

/**
 * Assigns each job to the region minimizing its forecast carbon.
 *
 * For every job, the planner runs the temporal `policy` against
 * each region's CIS and picks the region whose planned execution
 * has the lowest forecast carbon integral (ties: earliest region in
 * the list). This composes with any temporal policy — NoWait yields
 * pure spatial shifting, Carbon-Time yields joint spatio-temporal
 * shifting.
 */
class SpatialPlanner
{
  public:
    /**
     * @param regions one CIS per candidate region (non-owning;
     *        must outlive the planner)
     * @param policy  temporal policy applied within each region
     * @param queues  queue configuration shared across regions
     */
    SpatialPlanner(std::vector<const CarbonInfoSource *> regions,
                   const SchedulingPolicy &policy,
                   const QueueConfig &queues);

    /** Best region + plan for a single job. */
    SpatialAssignment assign(const Job &job) const;

    /** Partition a whole trace into per-region sub-traces. */
    SpatialPartition partition(const JobTrace &trace) const;

  private:
    std::vector<const CarbonInfoSource *> regions_;
    const SchedulingPolicy &policy_;
    const QueueConfig &queues_;
};

} // namespace gaia

#endif // GAIA_CORE_SPATIAL_H
