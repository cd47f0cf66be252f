#include "core/policy.h"

#include "common/logging.h"

namespace gaia {

void
SchedulingPolicy::checkContext(const Job &job, const PlanContext &ctx)
{
    GAIA_ASSERT(ctx.cis != nullptr, "plan() without a CIS");
    GAIA_ASSERT(ctx.queue != nullptr, "plan() without a queue");
    GAIA_ASSERT(ctx.now == job.submit, "plan() at t=", ctx.now,
                " for a job submitted at ", job.submit);
    GAIA_ASSERT(job.length > 0, "job ", job.id, " has no work");
}

std::vector<Seconds>
SchedulingPolicy::candidateStarts(Seconds now, Seconds max_wait,
                                  Seconds granularity)
{
    GAIA_ASSERT(now >= 0, "negative decision time");
    GAIA_ASSERT(max_wait >= 0, "negative waiting window");

    std::vector<Seconds> starts;
    forEachCandidateStart(now, max_wait, granularity,
                          [&](Seconds t) { starts.push_back(t); });
    return starts;
}

} // namespace gaia
