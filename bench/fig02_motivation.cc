/**
 * @file
 * Figure 2 — The motivating tension (§3): a three-day synthetic
 * workload (Poisson arrivals, 48 min mean gap, 4 h mean length,
 * 1 CPU) on 5 reserved instances plus on-demand overflow, comparing
 * a carbon-agnostic FCFS schedule with Wait Awhile. The paper
 * reports, for February California intensity: −36% carbon, +68%
 * cost, +5.3% completion; and for Sweden: −4% carbon at +76% cost
 * and 4.9x completion.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"
#include "workload/trace_stats.h"

using namespace gaia;

namespace {

void
runRegion(Region region, const JobTrace &trace,
          const QueueConfig &queues)
{
    // Start in February (day 36) as in the paper's example.
    const CarbonTrace carbon =
        makeRegionTrace(region, 24 * 11, 2, 36.0);
    const CarbonInfoService cis(carbon);

    ClusterConfig cluster;
    cluster.reserved_cores = 5;

    const SimulationResult fcfs =
        runPolicy("NoWait", trace, queues, cis, cluster,
                  ResourceStrategy::HybridGreedy);
    const SimulationResult wa =
        runPolicy("Wait-Awhile", trace, queues, cis, cluster,
                  ResourceStrategy::HybridGreedy);

    std::cout << "\n--- " << regionName(region) << " ---\n";
    std::cout << "Original demand   "
              << sparkline(allocationSeries(fcfs, hours(1)), 60)
              << "\n";
    std::cout << "Wait-Awhile alloc "
              << sparkline(allocationSeries(wa, hours(1)), 60)
              << "\n";

    TextTable table("Figure 2b — Wait Awhile vs. carbon-agnostic ("
                        + regionName(region) + ")",
                    {"metric", "Original", "Wait-Awhile",
                     "change"});
    const auto add = [&](const std::string &metric, double base,
                         double other) {
        table.addRow({metric, fmt(base, 3), fmt(other, 3),
                      fmtPercent(other / base - 1.0)});
    };
    add("carbon (kg)", fcfs.carbon_kg, wa.carbon_kg);
    add("cost ($)", fcfs.totalCost(), wa.totalCost());
    add("completion (h)", fcfs.meanCompletionHours(),
        wa.meanCompletionHours());
    table.print(std::cout);

    auto csv = bench::openCsv(
        "fig02_motivation_" + toLower(regionName(region)),
        {"metric", "original", "wait_awhile"});
    csv.writeRow({"carbon_kg", fmt(fcfs.carbon_kg, 4),
                  fmt(wa.carbon_kg, 4)});
    csv.writeRow({"cost_usd", fmt(fcfs.totalCost(), 4),
                  fmt(wa.totalCost(), 4)});
    csv.writeRow({"completion_h",
                  fmt(fcfs.meanCompletionHours(), 4),
                  fmt(wa.meanCompletionHours(), 4)});

    // Figure 2a's time series: demand/allocation per hour.
    const auto original = allocationSeries(fcfs, hours(1));
    const auto shifted = allocationSeries(wa, hours(1));
    const CarbonTrace carbon_again =
        makeRegionTrace(region, 24 * 11, 2, 36.0);
    auto series_csv = bench::openCsv(
        "fig02a_demand_" + toLower(regionName(region)),
        {"hour", "original_cores", "wait_awhile_cores",
         "carbon_intensity"});
    const std::size_t span =
        std::max(original.size(), shifted.size());
    for (std::size_t h = 0; h < span; ++h) {
        const double o = h < original.size() ? original[h] : 0.0;
        const double s = h < shifted.size() ? shifted[h] : 0.0;
        series_csv.writeRow(
            {std::to_string(h), fmt(o, 3), fmt(s, 3),
             fmt(carbon_again.atSlot(
                     static_cast<SlotIndex>(h)),
                 1)});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 2",
                  "carbon-aware scheduling vs. cost/performance on "
                  "a hybrid cluster (motivating example)");

    const JobTrace trace = makeMotivatingTrace(3 * kSecondsPerDay, 2);
    const QueueConfig queues = calibratedQueues(trace);
    std::cout << "Workload: " << trace.jobCount()
              << " jobs, mean demand "
              << fmt(trace.meanDemand(), 2) << " CPUs\n";

    runRegion(Region::CaliforniaUS, trace, queues);
    runRegion(Region::Sweden, trace, queues);

    std::cout << "\nShape target: California shows a sizeable "
                 "carbon cut at a much larger cost increase and a "
                 "small completion increase; Sweden shows almost "
                 "no carbon benefit for a similar cost blow-up.\n";
    return 0;
}
