#include "core/elastic.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"

namespace gaia {

namespace {

/** The run's profile; fixed width when the context carries none. */
const ElasticProfile &
runProfile(const PlanContext &ctx)
{
    static const ElasticProfile fixed_width;
    return ctx.elastic != nullptr ? *ctx.elastic : fixed_width;
}

} // namespace

ElasticWindow
makeElasticWindow(const Job &job, const PlanContext &ctx)
{
    const ElasticProfile &profile = runProfile(ctx);
    const Seconds now = ctx.now;
    const int min_width = profile.min_instances;
    const int max_width = profile.maxInstances();

    ElasticWindow window;
    window.submit = now;
    // Enough room to finish when started at the last admissible
    // instant; any work-covering allocation then necessarily starts
    // within [now, now + W] (pigeonhole on max-width capacity).
    const auto speedup_length = static_cast<Seconds>(
        std::ceil(static_cast<double>(job.length) /
                  profile.maxThroughput()));
    window.deadline =
        now + ctx.queue->max_wait + speedup_length;
    window.base_width = min_width;

    window.step_rate.push_back(profile.throughputAt(min_width));
    window.step_instances.push_back(min_width);
    for (int w = min_width + 1; w <= max_width; ++w) {
        window.step_rate.push_back(
            profile.marginal[static_cast<std::size_t>(w - 1)]);
        window.step_instances.push_back(1);
    }

    window.slots = SlotForecasts(ctx, window.deadline).windows();
    return window;
}

AllocationValue
evaluateAllocation(const ElasticWindow &window,
                   const ElasticAllocation &alloc)
{
    GAIA_ASSERT(alloc.slot_count == window.slotCount() &&
                    alloc.step_count == window.stepCount(),
                "allocation shape ", alloc.slot_count, "x",
                alloc.step_count, " does not match window ",
                window.slotCount(), "x", window.stepCount());
    AllocationValue value;
    for (int s = 0; s < alloc.slot_count; ++s) {
        for (int k = 0; k < alloc.step_count; ++k) {
            const Seconds d = alloc.at(s, k);
            if (d == 0)
                continue;
            GAIA_ASSERT(
                d > 0 &&
                    d <= window.slots[static_cast<std::size_t>(s)]
                             .capacity(),
                "chunk (", s, ", ", k, ") duration ", d,
                " outside its slot window");
            value.work +=
                static_cast<double>(d) *
                window.step_rate[static_cast<std::size_t>(k)];
            value.cost +=
                static_cast<double>(d) *
                window.slots[static_cast<std::size_t>(s)].ci *
                window.step_instances[static_cast<std::size_t>(k)];
        }
    }
    return value;
}

ElasticAllocation
planElasticGreedy(const ElasticWindow &window, Seconds length)
{
    const int slot_count = window.slotCount();
    const int step_count = window.stepCount();
    ElasticAllocation alloc(slot_count, step_count);

    // Next untaken step per slot; a step is eligible only once every
    // lower step of its slot is fully taken, which keeps durations
    // non-increasing across steps (valid width staircases).
    std::vector<int> next(static_cast<std::size_t>(slot_count), 0);

    double remaining = static_cast<double>(length);
    while (remaining > 0.0) {
        int best_slot = -1;
        int best_step = -1;
        double best_ratio =
            std::numeric_limits<double>::infinity();
        for (int s = 0; s < slot_count; ++s) {
            const int k = next[static_cast<std::size_t>(s)];
            if (k >= step_count)
                continue;
            const double r = window.ratio(s, k);
            if (r < best_ratio) {
                best_ratio = r;
                best_slot = s;
                best_step = k;
            }
        }
        GAIA_ASSERT(best_slot >= 0,
                    "elastic window exhausted with ", remaining,
                    "s of work left (", slot_count, " slots, ",
                    step_count, " steps)");

        const Seconds capacity =
            window.slots[static_cast<std::size_t>(best_slot)]
                .capacity();
        const double rate =
            window.step_rate[static_cast<std::size_t>(best_step)];
        Seconds take = capacity;
        const double need = remaining / rate;
        if (need < static_cast<double>(capacity)) {
            // Final chunk: the fewest whole seconds covering the
            // remainder.
            take = static_cast<Seconds>(std::ceil(need));
            if (take < 1)
                take = 1;
        }
        alloc.at(best_slot, best_step) = take;
        remaining -= static_cast<double>(take) * rate;
        next[static_cast<std::size_t>(best_slot)] = best_step + 1;
    }
    return alloc;
}

SchedulePlan
allocationToPlan(const ElasticWindow &window,
                 const ElasticAllocation &alloc)
{
    SchedulePlan plan;
    std::vector<Seconds> cuts;
    for (int s = 0; s < alloc.slot_count; ++s) {
        const SlotWindow &slot =
            window.slots[static_cast<std::size_t>(s)];
        const Seconds base = alloc.at(s, 0);
        if (base == 0) {
            for (int k = 1; k < alloc.step_count; ++k)
                GAIA_ASSERT(alloc.at(s, k) == 0,
                            "marginal chunk without a base chunk "
                            "in slot ",
                            s);
            continue;
        }
        cuts.clear();
        for (int k = 0; k < alloc.step_count; ++k) {
            const Seconds d = alloc.at(s, k);
            if (k > 0)
                GAIA_ASSERT(d <= alloc.at(s, k - 1),
                            "chunk durations must stack (slot ", s,
                            ", step ", k, ")");
            if (d > 0)
                cuts.push_back(d);
        }
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()),
                   cuts.end());

        // Widest width first: between consecutive cut offsets the
        // width is the base plus every marginal step still running.
        Seconds prev = 0;
        for (const Seconds cut : cuts) {
            int extra = 0;
            for (int k = 1; k < alloc.step_count; ++k) {
                if (alloc.at(s, k) >= cut)
                    ++extra;
            }
            plan.append(slot.from + prev, slot.from + cut,
                        window.base_width + extra);
            prev = cut;
        }
    }
    return plan;
}

SchedulePlan
elasticNoWaitPlan(const Job &job, const ElasticProfile &profile)
{
    if (!profile.enabled())
        return SchedulePlan(job.submit, job.length);
    const auto duration = static_cast<Seconds>(
        std::ceil(static_cast<double>(job.length) /
                  profile.maxThroughput()));
    SchedulePlan plan;
    plan.append(job.submit, job.submit + duration,
                profile.maxInstances());
    return plan;
}

SchedulePlan
CarbonScalerPolicy::plan(const Job &job,
                         const PlanContext &ctx) const
{
    checkContext(job, ctx);
    const ElasticWindow window = makeElasticWindow(job, ctx);
    const ElasticAllocation alloc =
        planElasticGreedy(window, job.length);
    return allocationToPlan(window, alloc);
}

SchedulePlan
ElasticNoWaitPolicy::plan(const Job &job,
                          const PlanContext &ctx) const
{
    checkContext(job, ctx);
    return elasticNoWaitPlan(job, runProfile(ctx));
}

} // namespace gaia
