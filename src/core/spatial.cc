#include "core/spatial.h"

#include <limits>

#include "common/logging.h"

namespace gaia {

SpatialPlanner::SpatialPlanner(
    std::vector<const CarbonInfoSource *> regions,
    const SchedulingPolicy &policy, const QueueConfig &queues)
    : regions_(std::move(regions)), policy_(policy), queues_(queues)
{
    if (regions_.empty())
        fatal("spatial planner needs at least one region");
    for (const CarbonInfoSource *cis : regions_)
        GAIA_ASSERT(cis != nullptr, "null region CIS");
}

SpatialAssignment
SpatialPlanner::assign(const Job &job) const
{
    const QueueSpec &queue = queues_.queueForJob(job);

    SpatialAssignment best;
    best.job = job.id;
    double best_carbon = std::numeric_limits<double>::infinity();

    for (std::size_t r = 0; r < regions_.size(); ++r) {
        PlanContext ctx;
        ctx.now = job.submit;
        ctx.cis = regions_[r];
        ctx.queue = &queue;
        SchedulePlan plan = policy_.plan(job, ctx);

        double forecast = 0.0;
        for (const RunSegment &seg : plan.segments()) {
            forecast += regions_[r]->forecastIntegrate(
                job.submit, seg.start, seg.end);
        }
        if (forecast < best_carbon) {
            best_carbon = forecast;
            best.region_index = r;
            best.plan = std::move(plan);
        }
    }
    return best;
}

SpatialPartition
SpatialPlanner::partition(const JobTrace &trace) const
{
    SpatialPartition result;
    std::vector<std::vector<Job>> buckets(regions_.size());
    result.assignments.reserve(trace.jobCount());

    for (const Job &job : trace.jobs()) {
        SpatialAssignment assignment = assign(job);
        buckets[assignment.region_index].push_back(job);
        result.assignments.push_back(std::move(assignment));
    }

    result.region_traces.reserve(regions_.size());
    for (std::size_t r = 0; r < regions_.size(); ++r) {
        result.region_traces.emplace_back(
            trace.name() + "@region" + std::to_string(r),
            std::move(buckets[r]));
    }
    return result;
}

} // namespace gaia
