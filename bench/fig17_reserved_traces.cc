/**
 * @file
 * Figure 17 — Normalized cost and carbon across the year-long
 * traces and four policies in South Australia, with the reserved
 * count R set to each trace's mean demand (paper: Mustang 468,
 * Alibaba 100, Azure 142).
 *
 * Shape targets (paper §6.4.4): AllWait-Threshold is the cheapest
 * and dirtiest; Ecovisor the most expensive; RES-First-Carbon-Time
 * lands within ~9% of AllWait's cost while staying within ~11% of
 * Ecovisor's carbon; Azure (low demand CoV) shows the largest cost
 * savings and smallest carbon reductions, Mustang the opposite.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "analysis/parallel.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"
#include "workload/trace_stats.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 17",
                  "cost/carbon across traces with R = mean demand "
                  "(SA-AU)");

    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::yearSlots(), 1);
    const CarbonInfoService cis(carbon);

    struct Variant
    {
        std::string label;
        std::string policy;
        ResourceStrategy strategy;
    };
    const std::vector<Variant> variants = {
        {"AllWait-Threshold", "AllWait-Threshold",
         ResourceStrategy::ReservedFirst},
        {"Ecovisor", "Ecovisor", ResourceStrategy::HybridGreedy},
        {"Carbon-Time", "Carbon-Time",
         ResourceStrategy::HybridGreedy},
        {"RES-First-Carbon-Time", "Carbon-Time",
         ResourceStrategy::ReservedFirst},
    };

    TextTable table("Normalized cost / carbon (per trace, to the "
                    "max across policies)",
                    {"trace (R)", "policy", "cost", "carbon"});
    auto csv = bench::openCsv(
        "fig17_reserved_traces",
        {"trace", "reserved", "policy", "norm_cost", "norm_carbon",
         "cost_usd", "carbon_kg"});

    for (WorkloadSource source :
         {WorkloadSource::MustangHpc, WorkloadSource::AlibabaPai,
          WorkloadSource::AzureVm}) {
        const JobTrace trace = makeYearTrace(source, 1);
        const QueueConfig queues = calibratedQueues(trace);
        const int reserved =
            static_cast<int>(trace.meanDemand() + 0.5);

        ClusterConfig cluster;
        cluster.reserved_cores = reserved;

        std::vector<SimulationResult> results(variants.size());
        parallelFor(variants.size(), [&](std::size_t i) {
            results[i] = runPolicy(variants[i].policy, trace,
                                   queues, cis, cluster,
                                   variants[i].strategy);
        });

        double max_cost = 0.0, max_carbon = 0.0;
        for (const SimulationResult &r : results) {
            max_cost = std::max(max_cost, r.totalCost());
            max_carbon = std::max(max_carbon, r.carbon_kg);
        }
        const std::string trace_label = workloadName(source) +
                                        " (" +
                                        std::to_string(reserved) +
                                        ")";
        for (std::size_t i = 0; i < variants.size(); ++i) {
            table.addRow(
                {trace_label, variants[i].label,
                 fmt(results[i].totalCost() / max_cost, 3),
                 fmt(results[i].carbon_kg / max_carbon, 3)});
            csv.writeRow(
                {workloadName(source), std::to_string(reserved),
                 variants[i].label,
                 fmt(results[i].totalCost() / max_cost, 4),
                 fmt(results[i].carbon_kg / max_carbon, 4),
                 fmt(results[i].totalCost(), 2),
                 fmt(results[i].carbon_kg, 2)});
        }
        const DemandStats demand = demandStats(trace);
        std::cout << workloadName(source) << ": mean demand "
                  << fmt(demand.mean, 1) << " cores, CoV "
                  << fmt(demand.cov, 2)
                  << " (paper: Mustang 0.8, Azure 0.3)\n";
    }
    table.print(std::cout);

    std::cout << "\nShape targets: AllWait cheapest/dirtiest, "
                 "Ecovisor most expensive, RES-First-Carbon-Time "
                 "near AllWait's cost at near-Ecovisor carbon; "
                 "Azure saves the most cost, Mustang the most "
                 "carbon.\n";
    return 0;
}
