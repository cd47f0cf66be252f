#include "core/policy.h"

#include <algorithm>

#include "common/logging.h"
#include "core/plan_cache.h"

namespace gaia {

namespace {

/**
 * Sentinel BoundaryKey length for the one-slot table. Real keys use
 * a positive window length (J_avg), so a negative length can never
 * collide with them in the cache's per-length slot tables. The key
 * starts at the slot after arrival: the arrival slot reads measured
 * truth, which the table must not hold.
 */
constexpr Seconds kSlotIntensityKey = -1;

} // namespace

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

    const Seconds deadline = now + max_wait;
    std::vector<Seconds> starts{now};
    for (Seconds t = nextSlotBoundary(now + 1); t <= deadline;
         t += kSecondsPerHour)
        starts.push_back(t);
    if (granularity > 0) {
        for (Seconds t = now + granularity; t <= deadline;
             t += granularity)
            starts.push_back(t);
    }
    return starts;
}

SlotForecasts::SlotForecasts(const PlanContext &ctx, Seconds deadline)
    : cis_(*ctx.cis), now_(ctx.now), deadline_(deadline),
      first_(slotOf(ctx.now))
{
    GAIA_ASSERT(deadline > now_, "empty forecast window at t=", now_);
    const SlotIndex last = slotOf(deadline - 1);
    if (ctx.cache != nullptr && cis_.slotInvariantForecasts() &&
        last > first_) {
        const PlanCache::BoundaryKey key{slotStart(first_ + 1),
                                         last - first_,
                                         kSlotIntensityKey};
        table_ = ctx.cache->startIntegrals(key, [&](Seconds b) {
            return cis_.forecastAtSlot(now_, slotOf(b));
        });
    }
}

std::vector<SlotWindow>
SlotForecasts::windows() const
{
    const SlotIndex last = slotOf(deadline_ - 1);
    std::vector<SlotWindow> windows;
    windows.reserve(static_cast<std::size_t>(last - first_ + 1));
    for (SlotIndex s = first_; s <= last; ++s) {
        windows.push_back(
            {std::max(now_, slotStart(s)),
             std::min(deadline_, slotStart(s) + kSecondsPerHour),
             at(s)});
    }
    return windows;
}

} // namespace gaia
