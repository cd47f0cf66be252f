#include "core/policies.h"

#include <algorithm>
#include <numeric>
#include <span>

#include "common/logging.h"
#include "core/plan_cache.h"

namespace gaia {

namespace {

/**
 * Whether boundary-candidate results may be replayed across jobs:
 * needs a cache, hourly-only candidates, and source answers that do
 * not depend on the exact query instant within the arrival slot
 * (oracle truth or per-slot hashed noise qualify; forecast models
 * and fault decorators opt out via slotInvariantForecasts()).
 */
bool
memoizable(const PlanContext &ctx, Seconds granularity)
{
    return ctx.cache != nullptr && granularity == 0 &&
           ctx.cis->slotInvariantForecasts();
}

/**
 * Visit the start-time candidates after `now`, in candidateStarts()
 * order, each with its forecast integral over [s, s + length): the
 * hourly boundaries in (now, now + W], then the finer starts when
 * `granularity` is positive. With `memoize`, the boundary integrals
 * come from the PlanCache's table for `length`: they lie strictly
 * after slotOf(now), so they do not depend on the exact arrival
 * instant, and every job arriving in the same slot under the same W
 * has the same boundaries.
 */
template <typename Fn>
void
forEachLaterCandidate(const PlanContext &ctx, Seconds length,
                      Seconds granularity, bool memoize, Fn &&fn)
{
    const CarbonInfoSource &cis = *ctx.cis;
    const Seconds now = ctx.now;
    const Seconds deadline = now + ctx.queue->max_wait;
    const auto integral = [&](Seconds s) {
        return cis.forecastIntegrate(now, s, s + length);
    };
    const Seconds first = nextSlotBoundary(now + 1);
    if (first <= deadline) {
        const PlanCache::BoundaryKey key{
            first, (deadline - first) / kSecondsPerHour + 1, length};
        const std::span<const double> table =
            memoize ? ctx.cache->startIntegrals(key, integral)
                    : std::span<const double>{};
        for (std::int64_t k = 0; k < key.count; ++k) {
            const Seconds s = first + k * kSecondsPerHour;
            fn(s, memoize ? table[static_cast<std::size_t>(k)]
                          : integral(s));
        }
    }
    if (granularity > 0) {
        for (Seconds s = now + granularity; s <= deadline;
             s += granularity)
            fn(s, integral(s));
    }
}

/**
 * The walk Ecovisor and Adaptive-SR share: from ctx.now, run through
 * each slot whose forecast is at or below `threshold(waited)` and
 * pause through the others, where `waited` is the pause so far; once
 * the pause reaches the queue's budget W, run to completion.
 */
template <typename Threshold>
SchedulePlan
thresholdWalk(const Job &job, const PlanContext &ctx,
              Threshold &&threshold)
{
    const Seconds budget = ctx.queue->max_wait;
    const SlotForecasts forecasts(ctx, ctx.now + budget + job.length);

    SchedulePlan plan;
    Seconds cursor = ctx.now;
    Seconds waited = 0;
    Seconds remaining = job.length;
    while (remaining > 0) {
        if (waited >= budget) {
            plan.append(cursor, cursor + remaining);
            break;
        }
        const double limit = threshold(waited);
        const SlotIndex slot = slotOf(cursor);
        const Seconds slot_end = slotStart(slot) + kSecondsPerHour;
        if (forecasts.at(slot) <= limit) {
            const Seconds run_to =
                std::min(slot_end, cursor + remaining);
            plan.append(cursor, run_to);
            remaining -= run_to - cursor;
            cursor = run_to;
        } else {
            const Seconds pause =
                std::min(slot_end - cursor, budget - waited);
            cursor += pause;
            waited += pause;
        }
    }
    return plan;
}

} // namespace

SchedulePlan
NoWaitPolicy::plan(const Job &job, const PlanContext &ctx) const
{
    checkContext(job, ctx);
    return SchedulePlan(ctx.now, job.length);
}

SchedulePlan
AllWaitThresholdPolicy::plan(const Job &job,
                             const PlanContext &ctx) const
{
    checkContext(job, ctx);
    return SchedulePlan(ctx.now + ctx.queue->max_wait, job.length);
}

SchedulePlan
WaitAwhilePolicy::plan(const Job &job, const PlanContext &ctx) const
{
    checkContext(job, ctx);
    // Available execution window per hourly slot within the
    // deadline t + J + W, each priced at its forecast intensity.
    const std::vector<SlotWindow> windows =
        SlotForecasts(ctx, ctx.now + job.length + ctx.queue->max_wait)
            .windows();

    // Greedy: cheapest windows first (earliest on ties), taking the
    // earliest portion of the final partially-needed window.
    std::vector<std::size_t> order(windows.size());
    std::iota(order.begin(), order.end(), std::size_t{0});
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (windows[a].ci != windows[b].ci)
                      return windows[a].ci < windows[b].ci;
                  return windows[a].from < windows[b].from;
              });
    std::vector<Seconds> taken(windows.size(), 0);
    Seconds remaining = job.length;
    for (std::size_t idx : order) {
        if (remaining <= 0)
            break;
        taken[idx] = std::min(remaining, windows[idx].capacity());
        remaining -= taken[idx];
    }
    GAIA_ASSERT(remaining == 0, "Wait-Awhile could not place ",
                remaining, "s of job ", job.id,
                " within its deadline window");

    SchedulePlan plan;
    for (std::size_t i = 0; i < windows.size(); ++i) {
        if (taken[i] > 0)
            plan.append(windows[i].from, windows[i].from + taken[i]);
    }
    return plan;
}

EcovisorPolicy::EcovisorPolicy(double threshold_percentile)
    : threshold_percentile_(threshold_percentile)
{
    if (threshold_percentile_ < 0.0 || threshold_percentile_ > 100.0)
        fatal("Ecovisor threshold percentile out of range: ",
              threshold_percentile_);
}

SchedulePlan
EcovisorPolicy::plan(const Job &job, const PlanContext &ctx) const
{
    checkContext(job, ctx);
    const Seconds now = ctx.now;
    const double threshold = ctx.cis->forecastPercentile(
        now, now, now + kSecondsPerDay, threshold_percentile_);
    return thresholdWalk(job, ctx, [&](Seconds) { return threshold; });
}

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
    const Seconds now = ctx.now;
    const Seconds budget = ctx.queue->max_wait;
    return thresholdWalk(job, ctx, [&](Seconds waited) {
        // Quadratic easing from the initial percentile to 100 keeps
        // the policy selective through most of the budget and only
        // opens the floodgates near exhaustion.
        const double progress =
            budget > 0 ? static_cast<double>(waited) /
                             static_cast<double>(budget)
                       : 1.0;
        const double p =
            initial_percentile_ +
            (100.0 - initial_percentile_) * progress * progress;
        return ctx.cis->forecastPercentile(now, now,
                                           now + kSecondsPerDay, p);
    });
}

SchedulePlan
LowestSlotPolicy::plan(const Job &job, const PlanContext &ctx) const
{
    checkContext(job, ctx);
    const Seconds now = ctx.now;
    const SlotIndex best = ctx.cis->forecastMinSlot(
        now, now, now + ctx.queue->max_wait + 1);
    const Seconds start = std::max(now, slotStart(best));
    return SchedulePlan(start, job.length);
}

LowestWindowPolicy::LowestWindowPolicy(Seconds granularity,
                                       bool use_exact_length)
    : granularity_(granularity), use_exact_length_(use_exact_length)
{
}

SchedulePlan
LowestWindowPolicy::plan(const Job &job, const PlanContext &ctx) const
{
    checkContext(job, ctx);
    const Seconds now = ctx.now;
    const Seconds j_avg = use_exact_length_
                              ? job.length
                              : ctx.queue->effectiveAvgLength();

    // Strict <: the first minimum wins, starting now first. The
    // oracle variant keys on per-job exact lengths, each with its
    // own table, so it plans directly.
    Seconds best_start = now;
    double best_integral =
        ctx.cis->forecastIntegrate(now, now, now + j_avg);
    forEachLaterCandidate(
        ctx, j_avg, granularity_,
        memoizable(ctx, granularity_) && !use_exact_length_,
        [&](Seconds s, double integral) {
            if (integral < best_integral) {
                best_integral = integral;
                best_start = s;
            }
        });
    return SchedulePlan(best_start, job.length);
}

CarbonTimePolicy::CarbonTimePolicy(Seconds granularity)
    : granularity_(granularity)
{
}

SchedulePlan
CarbonTimePolicy::plan(const Job &job, const PlanContext &ctx) const
{
    checkContext(job, ctx);
    const Seconds now = ctx.now;
    const Seconds j_avg = ctx.queue->effectiveAvgLength();

    // Carbon footprint (up to the constant power factor) of starting
    // now — the carbon-agnostic reference C(t).
    const double base_integral =
        ctx.cis->forecastIntegrate(now, now, now + j_avg);

    Seconds best_start = now;
    double best_cst = 0.0; // starting now scores zero by definition
    forEachLaterCandidate(
        ctx, j_avg, granularity_, memoizable(ctx, granularity_),
        [&](Seconds s, double integral) {
            const double saving = base_integral - integral;
            if (saving <= 0.0)
                return; // never wait for non-positive savings
            const double completion =
                static_cast<double>((s - now) + j_avg);
            const double cst = saving / completion;
            if (cst > best_cst) {
                best_cst = cst;
                best_start = s;
            }
        });
    return SchedulePlan(best_start, job.length);
}

} // namespace gaia
