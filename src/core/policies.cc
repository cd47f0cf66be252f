#include "core/policies.h"

#include <algorithm>
#include <limits>
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
 * The hourly boundary-candidate range forEachCandidateStart visits
 * after `now`: first candidate and count. Every job arriving in the
 * same slot under the same max-wait sees the same range, because
 * nextSlotBoundary(now+1) is the next slot's start for any offset
 * within the slot.
 */
PlanCache::BoundaryKey
boundaryKey(Seconds now, Seconds max_wait, Seconds length)
{
    const Seconds first = nextSlotBoundary(now + 1);
    const Seconds deadline = now + max_wait;
    const std::int64_t count =
        first <= deadline
            ? (deadline - first) / kSecondsPerHour + 1
            : 0;
    return PlanCache::BoundaryKey{first, count, length};
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
    const CarbonInfoSource &cis = *ctx.cis;
    const Seconds now = ctx.now;
    const Seconds deadline = now + job.length + ctx.queue->max_wait;

    // Available execution window per hourly slot within the
    // deadline, each priced at its forecast intensity.
    struct SlotWindow
    {
        Seconds from;
        Seconds to;
        double ci;
    };
    std::vector<SlotWindow> windows;
    for (SlotIndex s = slotOf(now); slotStart(s) < deadline; ++s) {
        const Seconds from = std::max(now, slotStart(s));
        const Seconds to =
            std::min(deadline, slotStart(s) + kSecondsPerHour);
        if (to > from)
            windows.push_back({from, to, cis.forecastAtSlot(now, s)});
    }

    // Greedy: cheapest slots first (earliest on ties), taking the
    // earliest portion of the final partially-needed slot.
    std::vector<std::size_t> order(windows.size());
    for (std::size_t i = 0; i < order.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::size_t a, std::size_t b) {
                  if (windows[a].ci != windows[b].ci)
                      return windows[a].ci < windows[b].ci;
                  return windows[a].from < windows[b].from;
              });

    std::vector<RunSegment> segments;
    Seconds remaining = job.length;
    for (std::size_t idx : order) {
        if (remaining <= 0)
            break;
        const SlotWindow &w = windows[idx];
        const Seconds take =
            std::min(remaining, w.to - w.from);
        segments.push_back({w.from, w.from + take});
        remaining -= take;
    }
    GAIA_ASSERT(remaining == 0, "Wait-Awhile could not place ",
                remaining, "s of job ", job.id,
                " within its deadline window");
    return SchedulePlan(std::move(segments));
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
    const CarbonInfoSource &cis = *ctx.cis;
    const Seconds now = ctx.now;

    const double threshold = cis.forecastPercentile(
        now, now, now + kSecondsPerDay, threshold_percentile_);

    std::vector<RunSegment> segments;
    Seconds cursor = now;
    Seconds wait_left = ctx.queue->max_wait;
    Seconds remaining = job.length;

    while (remaining > 0) {
        if (wait_left <= 0) {
            // Waiting budget exhausted: run to completion.
            segments.push_back({cursor, cursor + remaining});
            remaining = 0;
            break;
        }
        const Seconds slot_end = slotStart(slotOf(cursor)) +
                                 kSecondsPerHour;
        if (cis.forecastAtSlot(now, slotOf(cursor)) <= threshold) {
            const Seconds run_to =
                std::min(slot_end, cursor + remaining);
            segments.push_back({cursor, run_to});
            remaining -= run_to - cursor;
            cursor = run_to;
        } else {
            const Seconds pause =
                std::min(slot_end - cursor, wait_left);
            cursor += pause;
            wait_left -= pause;
        }
    }
    return SchedulePlan(std::move(segments));
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
    const CarbonInfoSource &cis = *ctx.cis;
    const Seconds now = ctx.now;
    const Seconds j_avg = use_exact_length_
                              ? job.length
                              : ctx.queue->effectiveAvgLength();

    // Memoized path: the boundary candidates' integrals are
    // independent of the exact arrival instant (their windows lie
    // strictly after slotOf(now)), so they are read from the shared
    // slot table. The strict-< scan picks the first occurrence of
    // the minimum, so comparing that boundary against this job's
    // start-now integral reproduces the full scan bit for bit. The
    // oracle variant keys on per-job exact lengths, each with its
    // own table, so it stays direct.
    if (memoizable(ctx, granularity_) && !use_exact_length_) {
        const PlanCache::BoundaryKey key =
            boundaryKey(now, ctx.queue->max_wait, j_avg);
        const double now_integral =
            cis.forecastIntegrate(now, now, now + j_avg);
        Seconds best_start = now;
        if (key.count > 0) {
            const std::span<const double> integrals =
                ctx.cache->startIntegrals(key, [&](Seconds s) {
                    return cis.forecastIntegrate(now, s,
                                                 s + j_avg);
                });
            const auto best =
                std::min_element(integrals.begin(), integrals.end());
            if (*best < now_integral)
                best_start = key.first + (best - integrals.begin()) *
                                             kSecondsPerHour;
        }
        return SchedulePlan(best_start, job.length);
    }

    Seconds best_start = now;
    double best_integral = std::numeric_limits<double>::infinity();
    forEachCandidateStart(
        now, ctx.queue->max_wait, granularity_, [&](Seconds s) {
            const double integral =
                cis.forecastIntegrate(now, s, s + j_avg);
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
    const CarbonInfoSource &cis = *ctx.cis;
    const Seconds now = ctx.now;
    const Seconds j_avg = ctx.queue->effectiveAvgLength();

    // Carbon footprint (up to the constant power factor) of starting
    // now — the carbon-agnostic reference C(t).
    const double base_integral =
        cis.forecastIntegrate(now, now, now + j_avg);

    // Memoized path: only the boundary integrals are shareable —
    // the CST ratio divides by (s − now) + J_avg, which depends on
    // the exact arrival instant — so the per-job selection loop
    // replays the original arithmetic over the slot table.
    if (memoizable(ctx, granularity_)) {
        const PlanCache::BoundaryKey key =
            boundaryKey(now, ctx.queue->max_wait, j_avg);
        Seconds best_start = now;
        double best_cst = 0.0;
        if (key.count > 0) {
            const std::span<const double> integrals =
                ctx.cache->startIntegrals(key, [&](Seconds s) {
                    return cis.forecastIntegrate(now, s,
                                                 s + j_avg);
                });
            for (std::int64_t k = 0; k < key.count; ++k) {
                const double saving =
                    base_integral -
                    integrals[static_cast<std::size_t>(k)];
                if (saving <= 0.0)
                    continue; // never wait for non-positive savings
                const Seconds s = key.first + k * kSecondsPerHour;
                const double completion =
                    static_cast<double>((s - now) + j_avg);
                const double cst = saving / completion;
                if (cst > best_cst) {
                    best_cst = cst;
                    best_start = s;
                }
            }
        }
        return SchedulePlan(best_start, job.length);
    }

    Seconds best_start = now;
    double best_cst = 0.0; // starting now scores zero by definition
    forEachCandidateStart(
        now, ctx.queue->max_wait, granularity_, [&](Seconds s) {
            if (s == now)
                return;
            const double saving =
                base_integral -
                cis.forecastIntegrate(now, s, s + j_avg);
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
