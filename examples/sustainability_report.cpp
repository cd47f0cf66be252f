/**
 * @file
 * Sustainability report — a year of carbon accounting for a
 * cluster, the report an operator would attach to an ESG filing.
 *
 * Runs a year-long workload twice (carbon-agnostic NoWait versus
 * GAIA's Carbon-Time) and breaks carbon, avoided emissions, energy,
 * and cost down by calendar month, demonstrating the accounting
 * layer's per-job attribution and the seasonal structure (savings
 * track the grid's variability through the year).
 */

#include <array>
#include <iostream>

#include "analysis/harness.h"
#include "common/strings.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

namespace {

/** Per-month accumulation of one run's outcomes (by start time). */
struct MonthlyBook
{
    std::array<double, 12> carbon_g{};
    std::array<double, 12> cost{};
    std::array<int, 12> jobs{};
};

MonthlyBook
bookOf(const SimulationResult &result)
{
    MonthlyBook book;
    for (const JobOutcome &o : result.outcomes) {
        const auto m =
            static_cast<std::size_t>(monthOf(result.start(o)));
        book.carbon_g[m] += result.carbonGrams(o);
        book.cost[m] += result.variableCost(o);
        book.jobs[m] += 1;
    }
    return book;
}

} // namespace

int
main()
{
    // A year of the ML cluster in South Australia. Scale the job
    // count down a little so the example runs in a few seconds.
    TraceBuildOptions options;
    options.job_count = 30000;
    options.span = kSecondsPerYear;
    options.seed = 2026;
    const JobTrace trace =
        buildTrace(WorkloadSource::AlibabaPai, options).value();
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia,
        static_cast<std::size_t>(kHoursPerYear) + 24 * 8, 2026);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    const SimulationResult baseline =
        runPolicy("NoWait", trace, queues, cis);
    const SimulationResult green =
        runPolicy("Carbon-Time", trace, queues, cis);

    const MonthlyBook base_book = bookOf(baseline);
    const MonthlyBook green_book = bookOf(green);

    TextTable table("Monthly sustainability report (SA-AU)",
                    {"month", "jobs", "baseline kg", "GAIA kg",
                     "avoided kg", "avoided %"});
    for (int m = 0; m < 12; ++m) {
        const auto i = static_cast<std::size_t>(m);
        const double base_kg = base_book.carbon_g[i] / 1000.0;
        const double green_kg = green_book.carbon_g[i] / 1000.0;
        const double avoided = base_kg - green_kg;
        table.addRow(
            {monthName(m), std::to_string(green_book.jobs[i]),
             fmt(base_kg, 1), fmt(green_kg, 1), fmt(avoided, 1),
             base_kg > 0.0 ? fmtPercent(avoided / base_kg)
                           : "n/a"});
    }
    table.print(std::cout);

    const double total_avoided = baseline.carbon_kg -
                                 green.carbon_kg;
    std::cout << "\nAnnual summary: "
              << fmt(green.carbon_kg, 0) << " kg emitted vs "
              << fmt(baseline.carbon_kg, 0)
              << " kg carbon-agnostic (" << fmt(total_avoided, 0)
              << " kg avoided, "
              << fmtPercent(total_avoided / baseline.carbon_kg)
              << ") at " << fmt(green.meanWaitingHours(), 1)
              << " h mean waiting and no change in the cloud bill "
                 "(" << fmt(green.totalCost(), 0) << " $ vs "
              << fmt(baseline.totalCost(), 0) << " $).\n"
              << "Energy: " << fmt(green.energy_kwh, 0)
              << " kWh. Equivalent offsets at $100/t: $"
              << fmt(total_avoided / 1000.0 * 100.0, 0) << ".\n";
    return 0;
}
