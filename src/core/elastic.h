/**
 * @file
 * Elastic-scaling policy family (CarbonScaler / CarbonFlex).
 *
 * CarbonScaler [Hanafy et al., arXiv:2302.08681] extends GAIA's
 * temporal shifting to *elastic* jobs: work that can run on a
 * variable number of instances with known (usually diminishing)
 * marginal throughput. Instead of choosing one start time, the
 * planner allocates marginal instance capacity hour by hour —
 * cheapest carbon per unit of marginal throughput first — until the
 * job's work is covered.
 *
 * The planning geometry is explicit so tests can differentially
 * verify the greedy allocator against brute-force oracles:
 *
 *  - An ElasticWindow lists the hourly slot windows available to one
 *    job (submit .. deadline) with their forecast intensities, plus
 *    the job's capacity "steps": step 0 is the base chunk (running
 *    at min_instances), each further step adds one instance with its
 *    marginal throughput.
 *  - An ElasticAllocation assigns each (slot, step) chunk a
 *    duration; evaluateAllocation() is the single canonical
 *    work/cost accumulator every allocator and oracle shares, so
 *    "bit-exact" comparisons reduce to allocation identity.
 *  - planElasticGreedy() is the CarbonScaler allocator; on concave
 *    profiles it equals the fractional-knapsack optimum (the
 *    eligibility order coincides with the global cost-per-work sort;
 *    see tests/core/test_elastic_oracle.cc).
 *
 * The deadline is submit + W + ceil(length / maxThroughput): enough
 * room to finish even when started at the last admissible instant,
 * and tight enough that any work-covering allocation provably starts
 * within the queue's waiting window [submit, submit + W].
 */

#ifndef GAIA_CORE_ELASTIC_H
#define GAIA_CORE_ELASTIC_H

#include <vector>

#include "core/policy.h"

namespace gaia {

/** Hourly slot windows and capacity steps for one elastic job. */
struct ElasticWindow
{
    Seconds submit = 0;
    /** Latest instant any chunk may extend to. */
    Seconds deadline = 0;
    /** Width while only the base step runs (= min_instances). */
    int base_width = 1;
    /** step_rate[0] = throughput at base width; step_rate[k>0] = the
     *  marginal throughput of instance base_width + k. */
    std::vector<double> step_rate;
    /** Instances billed per step: base_width for step 0, else 1. */
    std::vector<int> step_instances;
    /** The hourly slot windows of [submit, deadline). */
    std::vector<SlotWindow> slots;

    int stepCount() const
    {
        return static_cast<int>(step_rate.size());
    }
    int slotCount() const
    {
        return static_cast<int>(slots.size());
    }

    /** Carbon cost per unit of work of chunk (slot s, step k). */
    double
    ratio(int s, int k) const
    {
        return slots[static_cast<std::size_t>(s)].ci *
               step_instances[static_cast<std::size_t>(k)] /
               step_rate[static_cast<std::size_t>(k)];
    }
};

/**
 * Build the planning window for `job` at ctx.now under the run's
 * profile, ctx.elastic (fixed width when null). Slot intensities
 * come from SlotForecasts, so the slots after the arrival slot may
 * be read from the PlanCache's one-slot table (bitwise identical by
 * construction).
 */
ElasticWindow makeElasticWindow(const Job &job,
                                const PlanContext &ctx);

/** Chunk durations chosen by an allocator, slot-major. */
struct ElasticAllocation
{
    int slot_count = 0;
    int step_count = 0;
    /** duration[s * step_count + k] = seconds of chunk (s, k). */
    std::vector<Seconds> duration;

    ElasticAllocation() = default;
    ElasticAllocation(int slot_count_, int step_count_)
        : slot_count(slot_count_), step_count(step_count_),
          duration(static_cast<std::size_t>(slot_count_) *
                       static_cast<std::size_t>(step_count_),
                   0)
    {
    }

    Seconds
    at(int s, int k) const
    {
        return duration[static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(step_count) +
                        static_cast<std::size_t>(k)];
    }
    Seconds &
    at(int s, int k)
    {
        return duration[static_cast<std::size_t>(s) *
                            static_cast<std::size_t>(step_count) +
                        static_cast<std::size_t>(k)];
    }

    bool
    operator==(const ElasticAllocation &o) const
    {
        return slot_count == o.slot_count &&
               step_count == o.step_count && duration == o.duration;
    }
};

/** Work delivered and carbon cost of one allocation. */
struct AllocationValue
{
    /** Seconds of single-instance-equivalent work. */
    double work = 0.0;
    /** Sum of duration x slot intensity x instances (relative units). */
    double cost = 0.0;
};

/**
 * The canonical evaluator (slot ascending, step ascending) shared by
 * the greedy allocator, the test oracles, and the property suite;
 * identical allocations therefore produce bitwise-identical values.
 */
AllocationValue evaluateAllocation(const ElasticWindow &window,
                                   const ElasticAllocation &alloc);

/**
 * CarbonScaler greedy: repeatedly take the eligible chunk with the
 * lowest cost-per-work ratio (ties: earlier slot, then lower step)
 * until `length` seconds of work are covered; the final chunk is
 * trimmed to the fewest whole seconds that cover the remainder.
 * Within a slot, step k only becomes eligible once step k-1 is fully
 * taken, so allocations always stack into valid width staircases.
 */
ElasticAllocation planElasticGreedy(const ElasticWindow &window,
                                    Seconds length);

/**
 * Render an allocation as a width-annotated SchedulePlan: chunks are
 * anchored at their slot window's start, widest width first.
 */
SchedulePlan allocationToPlan(const ElasticWindow &window,
                              const ElasticAllocation &alloc);

/**
 * Run-immediately plan at `profile`'s maximum width; the elastic
 * analogue of NoWait and the degraded-mode fallback for elastic jobs
 * when the CIS is unavailable. Falls back to the fixed-width NoWait
 * plan when `profile` is disabled.
 */
SchedulePlan elasticNoWaitPlan(const Job &job,
                               const ElasticProfile &profile);

/**
 * CarbonScaler: greedy marginal-capacity allocation over the waiting
 * window. Under a disabled profile this degenerates to
 * Wait-Awhile's lowest-slots suspend-resume schedule (same deadline
 * t + W + J, same slot order, same partial-slot trim).
 */
class CarbonScalerPolicy final : public SchedulingPolicy
{
  public:
    std::string name() const override { return "Carbon-Scaler"; }
    LengthKnowledge lengthKnowledge() const override
    {
        return LengthKnowledge::Exact;
    }
    bool carbonAware() const override { return true; }
    bool suspendResume() const override { return true; }
    bool elastic() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;
};

/**
 * Elastic-NoWait: run at maximum width immediately — the
 * carbon-agnostic baseline of the elastic family, and the reference
 * the oracle suite's monotonicity properties compare against.
 */
class ElasticNoWaitPolicy final : public SchedulingPolicy
{
  public:
    std::string name() const override { return "Elastic-NoWait"; }
    bool elastic() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;
};

} // namespace gaia

#endif // GAIA_CORE_ELASTIC_H
