/**
 * @file
 * Ablation — instance initiation/termination overhead. The paper's
 * AWS prototype bills the entire instance lifetime; its simulator
 * (and ours, by default) neglects spin-up/teardown. This ablation
 * turns the overhead on and shows that it amplifies exactly the
 * effect §6.3.1 describes: suspend-resume policies fragment demand
 * into many short acquisitions, so their cost penalty grows
 * fastest.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Ablation",
                  "instance startup/teardown overhead (week-long "
                  "Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    const std::vector<std::string> policies = {
        "NoWait", "Carbon-Time", "Ecovisor", "Wait-Awhile"};

    TextTable table("Total cost ($) vs per-acquisition overhead",
                    {"policy", "0 min", "2 min", "5 min", "10 min",
                     "cost growth @10min"});
    auto csv = bench::openCsv(
        "ablation_startup_overhead",
        {"policy", "overhead_min", "cost_usd", "carbon_kg",
         "overhead_core_hours"});
    for (const std::string &policy : policies) {
        std::vector<double> costs;
        double base_cost = 0.0;
        for (Seconds overhead :
             {Seconds{0}, minutes(2), minutes(5), minutes(10)}) {
            ClusterConfig cluster;
            cluster.startup_overhead = overhead;
            const SimulationResult r = runPolicy(
                policy, trace, queues, cis, cluster,
                ResourceStrategy::OnDemandOnly);
            costs.push_back(r.totalCost());
            if (overhead == 0)
                base_cost = r.totalCost();
            csv.writeRow({policy, fmt(toHours(overhead) * 60, 0),
                          fmt(r.totalCost(), 4),
                          fmt(r.carbon_kg, 4),
                          fmt(r.overhead_core_seconds / 3600.0,
                              2)});
        }
        table.addRow({policy, fmt(costs[0], 2), fmt(costs[1], 2),
                      fmt(costs[2], 2), fmt(costs[3], 2),
                      fmtPercent(costs[3] / base_cost - 1.0)});
    }
    table.print(std::cout);

    std::cout << "\nExpectation: single-segment policies pay one "
                 "overhead per job; suspend-resume policies pay "
                 "one per segment, so their cost grows fastest — "
                 "the real-testbed version of the fragmentation "
                 "penalty in Figure 10.\n";
    return 0;
}
