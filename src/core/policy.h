/**
 * @file
 * Scheduling policy interface.
 *
 * A policy decides *when* a job computes: it maps an arriving job to
 * a SchedulePlan whose first segment starts within the queue's
 * waiting window [t, t+W]. Policies differ in what they may know
 * (exact length, queue-wide average, or nothing) and what they
 * optimize (nothing, carbon, or carbon-per-completion-time); the
 * capability flags reproduce the paper's Table 1.
 *
 * Plans must cover the job's true length so the simulator can
 * execute them — but a policy may only *use* the length when its
 * lengthKnowledge() is Exact (Wait Awhile); others act on the
 * queue-wide average or purely online rules, exactly as in the
 * paper.
 */

#ifndef GAIA_CORE_POLICY_H
#define GAIA_CORE_POLICY_H

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "core/cis.h"
#include "core/queues.h"
#include "core/schedule.h"
#include "workload/job.h"

namespace gaia {

class PlanCache;

/** Everything a policy may consult when planning one job. */
struct PlanContext
{
    /** Decision instant; equals the job's submit time. */
    Seconds now = 0;
    /** Carbon information source (forecasts). */
    const CarbonInfoSource *cis = nullptr;
    /** The job's queue (provides W, J^max, J_avg). */
    const QueueSpec *queue = nullptr;
    /**
     * Optional slot tables of slot-invariant planning values (see
     * core/plan_cache.h); null disables them. Policies must produce
     * bitwise-identical plans with and without it, so their keys
     * span only slots after slotOf(now), and one cache only serves
     * plans made in time order.
     */
    PlanCache *cache = nullptr;
    /**
     * The run's elastic-scaling profile (CarbonScaler extension),
     * applied to every job; null means fixed width, as in the paper.
     * Only elastic() policies read it.
     */
    const ElasticProfile *elastic = nullptr;
};

/** What a policy knows about job lengths (Table 1, "Job Length"). */
enum class LengthKnowledge
{
    None,         ///< no length information at all
    QueueAverage, ///< historical queue-wide average J_avg
    Exact,        ///< the job's true length (Wait Awhile only)
};

/** Abstract scheduling policy. */
class SchedulingPolicy
{
  public:
    virtual ~SchedulingPolicy() = default;

    /** Canonical policy name (as used in the paper's figures). */
    virtual std::string name() const = 0;

    /** Length information the policy consumes. */
    virtual LengthKnowledge lengthKnowledge() const
    {
        return LengthKnowledge::None;
    }

    /** True when the policy optimizes carbon. */
    virtual bool carbonAware() const { return false; }

    /** True when the policy also weighs the performance penalty. */
    virtual bool performanceAware() const { return false; }

    /** True when plans may suspend and resume execution. */
    virtual bool suspendResume() const { return false; }

    /**
     * True when plans may use multi-instance segments (widths above
     * 1) under an enabled PlanContext::elastic profile. Elastic
     * plans are exempt from the fixed-width contract below: their
     * segments' *work* (duration x throughput at the segment width)
     * covers job.length rather than their wall time.
     */
    virtual bool elastic() const { return false; }

    /**
     * Plan `job`'s execution. The returned plan's first segment
     * starts within [ctx.now, ctx.now + ctx.queue->max_wait] and its
     * segments sum to job.length.
     */
    virtual SchedulePlan plan(const Job &job,
                              const PlanContext &ctx) const = 0;

  protected:
    /** What every plan() asserts of its input: a source and a queue,
     *  planning at the job's submit instant, and a job with work. */
    static void checkContext(const Job &job, const PlanContext &ctx);

    /**
     * Candidate start times for start-time policies: `now` plus each
     * hourly boundary in (now, now + max_wait]. With hourly
     * piecewise-constant intensity, the carbon objectives are
     * piecewise-linear in the start offset, so boundary candidates
     * contain an optimum up to intra-slot ties; `granularity`
     * (seconds, 0 = hourly boundaries only) adds finer candidates
     * for the slot-granularity ablation.
     */
    static std::vector<Seconds>
    candidateStarts(Seconds now, Seconds max_wait,
                    Seconds granularity = 0);
};

/** Owning policy handle. */
using PolicyPtr = std::unique_ptr<SchedulingPolicy>;

/** One hourly slot's usable window [from, to) and its forecast. */
struct SlotWindow
{
    Seconds from = 0;
    Seconds to = 0;
    /** Forecast carbon intensity of the slot (as seen at submit). */
    double ci = 0.0;

    Seconds capacity() const { return to - from; }
};

/**
 * The hourly slot forecasts over [ctx.now, deadline) as seen at
 * ctx.now: the one reader the suspend-resume policies plan from.
 *
 * The arrival slot is measured truth, so it is always read from the
 * source. Later slots come from the PlanCache's one-slot table when
 * the context carries a cache and the source is
 * slotInvariantForecasts() (see core/plan_cache.h), and from
 * forecastAtSlot() otherwise; both give the same bits. at() reads
 * one slot per call, so a walk that stops early pays only for the
 * slots it reached. The table view lasts until the cache's next
 * lookup, so a reader lives within one plan() call.
 */
class SlotForecasts
{
  public:
    SlotForecasts(const PlanContext &ctx, Seconds deadline);

    /** Forecast intensity of `slot`, a slot of the window. */
    double at(SlotIndex slot) const
    {
        if (slot == first_ || table_.empty())
            return cis_.forecastAtSlot(now_, slot);
        return table_[static_cast<std::size_t>(slot - first_ - 1)];
    }

    /** Every slot's window, clipped to [now, deadline), in time
     *  order. */
    std::vector<SlotWindow> windows() const;

  private:
    const CarbonInfoSource &cis_;
    Seconds now_;
    Seconds deadline_;
    SlotIndex first_;
    /** Slots first_ + 1 onward, when the one-slot table serves. */
    std::span<const double> table_;
};

} // namespace gaia

#endif // GAIA_CORE_POLICY_H
