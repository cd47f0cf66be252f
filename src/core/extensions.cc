#include "core/extensions.h"

#include <algorithm>

#include "common/logging.h"

namespace gaia {

AdaptiveSRPolicy::AdaptiveSRPolicy(double initial_percentile)
    : initial_percentile_(initial_percentile)
{
    if (initial_percentile_ < 0.0 || initial_percentile_ > 100.0)
        fatal("Adaptive-SR percentile out of range: ",
              initial_percentile_);
}

SchedulePlan
AdaptiveSRPolicy::plan(const Job &job, const PlanContext &ctx) const
{
    checkContext(job, ctx);

    const CarbonInfoSource &cis = *ctx.cis;
    const Seconds now = ctx.now;
    const Seconds budget = ctx.queue->max_wait;

    std::vector<RunSegment> segments;
    Seconds cursor = now;
    Seconds waited = 0;
    Seconds remaining = job.length;

    while (remaining > 0) {
        if (waited >= budget) {
            segments.push_back({cursor, cursor + remaining});
            break;
        }
        // Threshold relaxes from the initial percentile to 100 as
        // the budget drains. Quadratic easing keeps the policy
        // selective through most of the budget and only opens the
        // floodgates near exhaustion, preserving most of the
        // suspension savings while softening the endgame.
        const double progress =
            budget > 0 ? static_cast<double>(waited) /
                             static_cast<double>(budget)
                       : 1.0;
        const double p =
            initial_percentile_ +
            (100.0 - initial_percentile_) * progress * progress;
        const double threshold = cis.forecastPercentile(
            now, now, now + kSecondsPerDay, p);

        const Seconds slot_end =
            slotStart(slotOf(cursor)) + kSecondsPerHour;
        if (cis.forecastAtSlot(now, slotOf(cursor)) <= threshold) {
            const Seconds run_to =
                std::min(slot_end, cursor + remaining);
            segments.push_back({cursor, run_to});
            remaining -= run_to - cursor;
            cursor = run_to;
        } else {
            const Seconds pause =
                std::min(slot_end - cursor, budget - waited);
            cursor += pause;
            waited += pause;
        }
    }
    return SchedulePlan(std::move(segments));
}

} // namespace gaia
