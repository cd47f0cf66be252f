/**
 * @file
 * Figure 11 — Effect of the reserved-instance count under the
 * work-conserving RES-First-Carbon-Time policy (week-long
 * Alibaba-PAI, South Australia). Carbon and cost are normalized to
 * a NoWait on-demand-only execution; waiting time is absolute.
 *
 * Shape targets: cost is U-shaped with an interior minimum near the
 * trace's mean demand; carbon savings shrink as reserved capacity
 * grows; waiting time strictly decreases with reserved capacity.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "analysis/parallel.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 11",
                  "reserved-capacity sweep, RES-First-Carbon-Time "
                  "(week-long Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);
    std::cout << "Trace mean demand: "
              << fmt(trace.meanDemand(), 1) << " CPUs\n";

    const SimulationResult baseline =
        runPolicy("NoWait", trace, queues, cis);

    std::vector<int> reserved;
    for (int r = 0; r <= 36; r += 3)
        reserved.push_back(r);

    std::vector<SimulationResult> results(reserved.size());
    parallelFor(reserved.size(), [&](std::size_t i) {
        ClusterConfig cluster;
        cluster.reserved_cores = reserved[i];
        results[i] = runPolicy(
            "Carbon-Time", trace, queues, cis, cluster,
            reserved[i] == 0 ? ResourceStrategy::OnDemandOnly
                             : ResourceStrategy::ReservedFirst);
    });

    TextTable table(
        "Normalized to NoWait on-demand execution",
        {"reserved", "cost", "carbon", "waiting (h)", "util"});
    auto csv = bench::openCsv(
        "fig11_reserved_sweep",
        {"reserved", "norm_cost", "norm_carbon", "wait_hours",
         "reserved_utilization"});
    double best_cost = 1e18;
    int best_r = 0;
    for (std::size_t i = 0; i < reserved.size(); ++i) {
        const double norm_cost =
            results[i].totalCost() / baseline.totalCost();
        const double norm_carbon =
            results[i].carbon_kg / baseline.carbon_kg;
        table.addRow(std::to_string(reserved[i]),
                     {norm_cost, norm_carbon,
                      results[i].meanWaitingHours(),
                      results[i].reserved_utilization});
        csv.writeRow({std::to_string(reserved[i]),
                      fmt(norm_cost, 4), fmt(norm_carbon, 4),
                      fmt(results[i].meanWaitingHours(), 4),
                      fmt(results[i].reserved_utilization, 4)});
        if (results[i].totalCost() < best_cost) {
            best_cost = results[i].totalCost();
            best_r = reserved[i];
        }
    }
    table.print(std::cout);

    std::cout << "\nLowest-cost reserved count: " << best_r
              << " (paper: 18, at ~6% carbon savings vs NoWait); "
                 "users can trade a few % cost for more carbon by "
                 "choosing fewer instances.\n";
    return 0;
}
