/**
 * @file
 * Custom policy — extend GAIA with your own scheduling objective.
 *
 * GAIA's scheduler is a small interface: implement
 * SchedulingPolicy::plan() and the simulator, accounting, and
 * harness work unchanged. This example implements the
 * *energy-price-aware* policy the paper's discussion section
 * motivates (Figure 20): private-cloud operators pay wholesale
 * energy prices that are only weakly correlated with carbon
 * intensity (ERCOT: rho = 0.16), so a price-optimal schedule is not
 * a carbon-optimal one. PriceAwarePolicy starts each job in the
 * cheapest J_avg-long window, and the comparison below quantifies
 * the carbon-vs-energy-cost tension on an ERCOT-like market.
 */

#include <iostream>
#include <limits>

#include "analysis/harness.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/policies.h"
#include "trace/price_trace.h"
#include "workload/generators.h"

using namespace gaia;

namespace {

/** Starts jobs in the cheapest electricity-price window. */
class PriceAwarePolicy final : public SchedulingPolicy
{
  public:
    explicit PriceAwarePolicy(const PriceTrace &prices)
        : prices_(prices)
    {
    }

    std::string name() const override { return "Price-Aware"; }
    LengthKnowledge lengthKnowledge() const override
    {
        return LengthKnowledge::QueueAverage;
    }

    SchedulePlan
    plan(const Job &job, const PlanContext &ctx) const override
    {
        const Seconds j_avg = ctx.queue->effectiveAvgLength();
        Seconds best_start = ctx.now;
        double best_cost = std::numeric_limits<double>::infinity();
        for (Seconds s :
             candidateStarts(ctx.now, ctx.queue->max_wait)) {
            double cost = 0.0;
            for (Seconds t = s; t < s + j_avg;
                 t += kSecondsPerHour) {
                const Seconds step =
                    std::min(kSecondsPerHour, s + j_avg - t);
                cost += prices_.at(t) * static_cast<double>(step);
            }
            if (cost < best_cost) {
                best_cost = cost;
                best_start = s;
            }
        }
        return SchedulePlan(best_start, job.length);
    }

  private:
    const PriceTrace &prices_;
};

/** Mean wholesale energy price paid per core-hour of execution. */
double
meanEnergyPrice(const SimulationResult &result,
                const PriceTrace &prices)
{
    double weighted = 0.0, core_seconds = 0.0;
    for (const JobOutcome &o : result.outcomes) {
        const int cpus = result.job(o).cpus;
        for (const PlacedSegment &seg : result.placements(o)) {
            for (Seconds t = seg.start(); t < seg.end();
                 t += kSecondsPerHour) {
                const Seconds step =
                    std::min(kSecondsPerHour, seg.end() - t);
                weighted += prices.at(t) *
                            static_cast<double>(step) * cpus;
                core_seconds += static_cast<double>(step) * cpus;
            }
        }
    }
    return core_seconds > 0.0 ? weighted / core_seconds : 0.0;
}

} // namespace

int
main()
{
    const JobTrace trace = makeWeekTrace(11);
    const QueueConfig queues = calibratedQueues(trace);

    // Joint carbon/price series for a Texas-like market.
    const GridMarketTrace market = makeErcotTrace(24 * 13, 11);
    const CarbonInfoService cis(market.carbon);

    const PriceAwarePolicy price_aware(market.price);
    const CarbonTimePolicy carbon_time;
    const NoWaitPolicy no_wait;

    TextTable table("Carbon vs energy-price optimization (ERCOT)",
                    {"policy", "carbon (kg)", "mean $/MWh paid",
                     "wait (h)"});
    for (const SchedulingPolicy *policy :
         std::initializer_list<const SchedulingPolicy *>{
             &no_wait, &carbon_time, &price_aware}) {
        const SimulationResult r = runPolicy(*policy, trace, queues, cis);
        table.addRow(policy->name(),
                     {r.carbon_kg,
                      meanEnergyPrice(r, market.price),
                      r.meanWaitingHours()});
    }
    table.print(std::cout);

    std::cout
        << "\nWith weak price-carbon correlation, the price-aware "
           "schedule pays the least for energy but leaves carbon "
           "on the table, and vice versa — the paper's Figure 20 "
           "tension. Implementing a policy took ~30 lines.\n";
    return 0;
}
