/**
 * @file
 * The paper's scheduling policies (§4.2 and Table 1).
 *
 * Baselines:
 *   - NoWaitPolicy:            run immediately (carbon/cost-agnostic).
 *   - AllWaitThresholdPolicy:  cost baseline; plan the latest start
 *                              (t+W) so a work-conserving strategy
 *                              can wait for reserved capacity.
 *   - WaitAwhilePolicy:        carbon-optimal suspend-resume with
 *                              exact length knowledge (deadline J+W).
 *   - EcovisorPolicy:          greedy suspend-resume below a carbon
 *                              threshold (30th pct of next 24 h).
 *
 * Proposed (GAIA):
 *   - LowestSlotPolicy:        start at the window's lowest-CI slot.
 *   - LowestWindowPolicy:      start minimizing the CI integral over
 *                              a J_avg-long window.
 *   - CarbonTimePolicy:        start maximizing carbon savings per
 *                              completion time (CST).
 *
 * Extension (not in the paper's Table 1):
 *   - AdaptiveSRPolicy:        Ecovisor's walk under a threshold
 *                              that relaxes as the waiting budget
 *                              drains.
 */

#ifndef GAIA_CORE_POLICIES_H
#define GAIA_CORE_POLICIES_H

#include "core/policy.h"

namespace gaia {

/** Carbon- and cost-agnostic baseline: run jobs as they arrive. */
class NoWaitPolicy final : public SchedulingPolicy
{
  public:
    std::string name() const override { return "NoWait"; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;
};

/**
 * Cost-aware baseline: delay the job until a reserved instance frees
 * up or the maximum waiting time is reached (the delay itself is
 * realized by the ReservedFirst strategy; the plan records the
 * latest admissible start).
 */
class AllWaitThresholdPolicy final : public SchedulingPolicy
{
  public:
    std::string name() const override { return "AllWait-Threshold"; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;
};

/**
 * Wait Awhile [Wiesner et al.]: knows the exact job length and picks
 * the set of lowest-carbon slots summing to J within the deadline
 * t + J + W, suspending execution in between.
 */
class WaitAwhilePolicy final : public SchedulingPolicy
{
  public:
    std::string name() const override { return "Wait-Awhile"; }
    LengthKnowledge lengthKnowledge() const override
    {
        return LengthKnowledge::Exact;
    }
    bool carbonAware() const override { return true; }
    bool suspendResume() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;
};

/**
 * Ecovisor [Souza et al.]: execute whenever the current carbon
 * intensity is below a threshold (the 30th percentile of the next
 * 24 hours at submission), pause otherwise; once the accumulated
 * waiting reaches W, run to completion.
 */
class EcovisorPolicy final : public SchedulingPolicy
{
  public:
    /** @param threshold_percentile threshold within the next-24 h
     *         intensity distribution (paper: 30). */
    explicit EcovisorPolicy(double threshold_percentile = 30.0);

    std::string name() const override { return "Ecovisor"; }
    bool carbonAware() const override { return true; }
    bool suspendResume() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;

  private:
    double threshold_percentile_;
};

/**
 * Adaptive suspend-resume (extension; not part of the paper).
 *
 * The paper's GAIA scheduler is restricted to uninterruptible
 * execution and names suspend-resume support as future work (§4.1).
 * The suspend-resume baselines are either length oracles (Wait
 * Awhile) or performance-oblivious (Ecovisor, which pauses for *any*
 * saving until its budget dies). Adaptive-SR is the middle ground:
 * an online rule that needs no length knowledge and spends its
 * waiting budget progressively, so the tail of the waiting
 * distribution shrinks while most of the suspension savings survive.
 *
 * Like Ecovisor, the job runs whenever the current slot's intensity
 * is at or below a threshold within the next-24 h distribution — but
 * the threshold percentile relaxes quadratically from
 * `initial_percentile` to 100 as the accumulated waiting approaches
 * the queue's budget W. The policy stays selective through most of
 * the budget, keeps the same W bound, and softens Ecovisor's hard
 * cliff at its end.
 */
class AdaptiveSRPolicy final : public SchedulingPolicy
{
  public:
    explicit AdaptiveSRPolicy(double initial_percentile = 30.0);

    std::string name() const override { return "Adaptive-SR"; }
    bool carbonAware() const override { return true; }
    bool performanceAware() const override { return true; }
    bool suspendResume() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;

  private:
    double initial_percentile_;
};

/**
 * GAIA Lowest-Slot: start in the slot with the lowest forecast
 * intensity within [t, t+W]; needs no length information at all.
 */
class LowestSlotPolicy final : public SchedulingPolicy
{
  public:
    std::string name() const override { return "Lowest-Slot"; }
    bool carbonAware() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;
};

/**
 * GAIA Lowest-Window: start minimizing the forecast carbon integral
 * over [s, s + J_avg], using the queue-wide average length as a
 * coarse estimate.
 */
class LowestWindowPolicy final : public SchedulingPolicy
{
  public:
    /**
     * @param granularity candidate-start spacing; 0 = hourly.
     * @param use_exact_length oracle variant: optimize over the
     *        job's true length instead of J_avg. Not part of the
     *        paper's policy set — it exists to decompose the
     *        Figure 13 gap between Lowest-Window and Wait-Awhile
     *        into its "length knowledge" and "suspension"
     *        components (see ablation_knowledge_gap).
     */
    explicit LowestWindowPolicy(Seconds granularity = 0,
                                bool use_exact_length = false);

    std::string name() const override
    {
        return use_exact_length_ ? "Lowest-Window-Oracle"
                                 : "Lowest-Window";
    }
    LengthKnowledge lengthKnowledge() const override
    {
        return use_exact_length_ ? LengthKnowledge::Exact
                                 : LengthKnowledge::QueueAverage;
    }
    bool carbonAware() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;

  private:
    Seconds granularity_;
    bool use_exact_length_;
};

/**
 * GAIA Carbon-Time: start maximizing CST(s) — forecast carbon saved
 * relative to starting now, divided by the resulting completion
 * time (s + J_avg − t) — so waiting is only spent where it buys
 * proportionate savings.
 */
class CarbonTimePolicy final : public SchedulingPolicy
{
  public:
    /** @param granularity candidate-start spacing; 0 = hourly. */
    explicit CarbonTimePolicy(Seconds granularity = 0);

    std::string name() const override { return "Carbon-Time"; }
    LengthKnowledge lengthKnowledge() const override
    {
        return LengthKnowledge::QueueAverage;
    }
    bool carbonAware() const override { return true; }
    bool performanceAware() const override { return true; }
    SchedulePlan plan(const Job &job,
                      const PlanContext &ctx) const override;

  private:
    Seconds granularity_;
};

} // namespace gaia

#endif // GAIA_CORE_POLICIES_H
