/**
 * @file
 * Figure 12 — Combining spot and reserved instances (week-long
 * Alibaba-PAI, South Australia). The "(R)" suffix is the reserved
 * count.
 *
 * Shape targets (paper §6.3.2): Spot-First variants keep the
 * carbon-aware schedule's savings at ~17% lower cost; Spot-RES
 * trades carbon for cost as the reserved share grows.
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
    bench::banner("Figure 12",
                  "spot + reserved combinations (week-long "
                  "Alibaba-PAI, SA-AU)");

    const JobTrace trace = makeWeekTrace(1);
    const CarbonTrace carbon = makeRegionTrace(
        Region::SouthAustralia, bench::weekSlots(), 1);
    const CarbonInfoService cis(carbon);
    const QueueConfig queues = calibratedQueues(trace);

    struct Variant
    {
        std::string label;
        std::string policy;
        ResourceStrategy strategy;
        int reserved;
    };
    const std::vector<Variant> variants = {
        {"Carbon-Time (0)", "Carbon-Time",
         ResourceStrategy::OnDemandOnly, 0},
        {"Spot-First-Carbon-Time (0)", "Carbon-Time",
         ResourceStrategy::SpotFirst, 0},
        {"Spot-First-Ecovisor (0)", "Ecovisor",
         ResourceStrategy::SpotFirst, 0},
        {"Spot-RES-Carbon-Time (9)", "Carbon-Time",
         ResourceStrategy::SpotReserved, 9},
        {"Spot-RES-Carbon-Time (6)", "Carbon-Time",
         ResourceStrategy::SpotReserved, 6},
    };

    std::vector<MetricsRow> rows;
    for (const Variant &v : variants) {
        ClusterConfig cluster;
        cluster.reserved_cores = v.reserved;
        cluster.spot_max_length = 2 * kSecondsPerHour;
        cluster.spot_eviction_rate = 0.0; // paper: never evicted
        const SimulationResult r = runPolicy(
            v.policy, trace, queues, cis, cluster, v.strategy);
        rows.push_back(metricsOf(v.label, r));
    }
    const auto normalized = normalizedToMax(rows);

    TextTable table("Normalized metrics (to the max per metric)",
                    {"configuration", "carbon", "cost", "waiting"});
    auto csv = bench::openCsv(
        "fig12_spot_reserved",
        {"configuration", "norm_carbon", "norm_cost", "norm_wait",
         "carbon_kg", "cost_usd"});
    for (std::size_t i = 0; i < variants.size(); ++i) {
        table.addRow(normalized[i].label,
                     {normalized[i].carbon_kg, normalized[i].cost,
                      normalized[i].wait_hours});
        csv.writeRow({rows[i].label,
                      fmt(normalized[i].carbon_kg, 4),
                      fmt(normalized[i].cost, 4),
                      fmt(normalized[i].wait_hours, 4),
                      fmt(rows[i].carbon_kg, 4),
                      fmt(rows[i].cost, 4)});
    }
    table.print(std::cout);

    std::cout << "\nSpot-First-Carbon-Time cost vs Carbon-Time: "
              << fmtPercent(rows[1].cost / rows[0].cost - 1.0)
              << " (paper: ~-17%) at carbon change "
              << fmtPercent(rows[1].carbon_kg /
                                rows[0].carbon_kg - 1.0)
              << " (paper: ~0%)\n"
              << "Spot-RES (9) cost vs Carbon-Time (0): "
              << fmtPercent(rows[3].cost / rows[0].cost - 1.0)
              << " (paper: ~-42%)\n";
    return 0;
}
