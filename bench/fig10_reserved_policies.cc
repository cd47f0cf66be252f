/**
 * @file
 * Figure 10 — Normalized carbon, cost, and waiting time across
 * policies with 9 reserved instances (week-long Alibaba-PAI trace,
 * South Australia).
 *
 * Shape targets (paper §6.3.1): NoWait has the highest carbon;
 * AllWait-Threshold the lowest cost and the highest waiting; the
 * suspend-resume policies fragment demand and cost the most;
 * RES-First-Carbon-Time saves ~21% cost versus plain Carbon-Time
 * while retaining about half of its carbon savings.
 */

#include "bench_common.h"

#include "analysis/harness.h"
#include "analysis/metrics.h"
#include "common/table.h"
#include "trace/region_model.h"
#include "workload/generators.h"

using namespace gaia;

int
main(int argc, char **argv)
{
    bench::parseBenchArgs(argc, argv);
    bench::banner("Figure 10",
                  "policies on a hybrid cluster with 9 reserved "
                  "instances (week-long Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    ClusterConfig cluster;
    cluster.reserved_cores = 9;

    struct Variant
    {
        std::string label;
        std::string policy;
        ResourceStrategy strategy;
    };
    const std::vector<Variant> variants = {
        {"NoWait", "NoWait", ResourceStrategy::HybridGreedy},
        {"AllWait-Threshold", "AllWait-Threshold",
         ResourceStrategy::ReservedFirst},
        {"Wait-Awhile", "Wait-Awhile",
         ResourceStrategy::HybridGreedy},
        {"Ecovisor", "Ecovisor", ResourceStrategy::HybridGreedy},
        {"Carbon-Time", "Carbon-Time",
         ResourceStrategy::HybridGreedy},
        {"RES-First-Carbon-Time", "Carbon-Time",
         ResourceStrategy::ReservedFirst},
    };

    std::vector<MetricsRow> rows;
    for (const Variant &v : variants) {
        const SimulationResult r = runPolicy(
            v.policy, trace, queues, cis, cluster, v.strategy);
        rows.push_back(metricsOf(v.label, r));
    }
    const auto normalized = normalizedToMax(rows);

    TextTable table("Normalized metrics (to the max per metric)",
                    {"policy", "carbon", "cost", "waiting"});
    auto csv = bench::openCsv(
        "fig10_reserved_policies",
        {"policy", "norm_carbon", "norm_cost", "norm_wait",
         "carbon_kg", "cost_usd", "wait_hours"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        table.addRow(normalized[i].label,
                     {normalized[i].carbon_kg, normalized[i].cost,
                      normalized[i].wait_hours});
        csv.writeRow({rows[i].label,
                      fmt(normalized[i].carbon_kg, 4),
                      fmt(normalized[i].cost, 4),
                      fmt(normalized[i].wait_hours, 4),
                      fmt(rows[i].carbon_kg, 4),
                      fmt(rows[i].cost, 4),
                      fmt(rows[i].wait_hours, 4)});
    }
    table.print(std::cout);

    const MetricsRow &nowait = rows[0];
    const MetricsRow &ct = rows[4];
    const MetricsRow &res_ct = rows[5];
    std::cout << "\nRES-First-Carbon-Time cost vs Carbon-Time: "
              << fmtPercent(res_ct.cost / ct.cost - 1.0)
              << " (paper: -21%)\n"
              << "Retained share of Carbon-Time's carbon savings: "
              << fmt(100.0 * (nowait.carbon_kg - res_ct.carbon_kg) /
                         (nowait.carbon_kg - ct.carbon_kg),
                     1)
              << "% (paper: ~50%)\n";
    return 0;
}
